//! Leader recovery (Figure 4, lines 35–68).
//!
//! `Recovery` is the prospective leader's side of the handshake, as a sans-IO
//! value: it counts the `NEW_LEADER_ACK` votes and then the `NEW_STATE_ACK`s
//! of one ballot, and `Recovery::merge` computes lines 44–55 as a pure
//! function of the quorum's votes. `WhiteBoxReplica::install` puts the
//! result in place, at the new leader and, from its `NEW_STATE`, at every
//! follower. It is the only code that replaces the records, the delivered
//! filter, the clock and delivery progress wholesale.

use std::collections::{BTreeMap, BTreeSet};
use std::mem;
use std::time::Duration;

use wbam_types::{Action, Ballot, Checkpoint, DeliveryQueue, Phase, ProcessId, Timestamp};

use super::{Status, WhiteBoxReplica};
use crate::messages::{RecordSnapshot, StateSnapshot, WhiteBoxMsg};
use crate::record::MessageRecord;
use crate::Outbox;

/// A `NEW_LEADER_ACK`: the voter's `cballot`, checkpoint and records.
pub(super) type Vote = (Ballot, Checkpoint, StateSnapshot);

/// The prospective leader's handshake for one ballot.
#[derive(Debug, Clone)]
pub(super) struct Recovery {
    /// The ballot being established.
    ballot: Ballot,
    /// `NEW_LEADER_ACK`s by sender, until a quorum has voted (lines 42–43).
    votes: BTreeMap<ProcessId, Vote>,
    /// Once the new state is computed: the members in sync with it (line
    /// 63), the leader included.
    synced: Option<BTreeSet<ProcessId>>,
}

impl Recovery {
    pub(super) fn new(ballot: Ballot) -> Self {
        Recovery {
            ballot,
            votes: BTreeMap::new(),
            synced: None,
        }
    }

    /// Lines 42–43: counts `from`'s vote for `ballot`. Once `quorum` members
    /// have voted, returns their votes and starts counting `NEW_STATE_ACK`s;
    /// a vote for another ballot, or after the quorum, is ignored.
    pub(super) fn vote(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        vote: Vote,
        quorum: usize,
    ) -> Option<BTreeMap<ProcessId, Vote>> {
        if ballot != self.ballot || self.synced.is_some() {
            return None;
        }
        self.votes.insert(from, vote);
        if self.votes.len() < quorum {
            return None;
        }
        self.synced = Some(BTreeSet::new());
        Some(mem::take(&mut self.votes))
    }

    /// Lines 63–64: counts `from` as in sync with `ballot`'s state, and
    /// reports whether a quorum is.
    pub(super) fn synced(&mut self, from: ProcessId, ballot: Ballot, quorum: usize) -> bool {
        match &mut self.synced {
            Some(synced) if ballot == self.ballot => {
                synced.insert(from);
                synced.len() >= quorum
            }
            _ => false,
        }
    }

    /// Lines 44–55: the new ballot's initial state, from the quorum's
    /// `votes` and the new leader's own checkpoint `base`.
    ///
    /// * Line 47: a record committed at any voter is committed, with its
    ///   timestamps.
    /// * Line 51: a record accepted at a voter of the maximal `cballot` is
    ///   accepted, with its local timestamp (unless some voter reported it
    ///   committed).
    /// * Proposed-only records did not reach a quorum in any ballot and are
    ///   dropped; the multicaster (or a remote leader) re-sends `MULTICAST`
    ///   for them.
    /// * Line 54: the clock is the maximum over the voters and `base`.
    /// * Compaction state is recovered alongside: watermarks advance to the
    ///   pointwise maximum (each reported watermark was sound when computed,
    ///   and watermarks only advance), and the delivered filters union
    ///   (anything any member knows delivered is delivered).
    /// * A record the merged filter knows but no voter reports committed was
    ///   delivered everywhere and then pruned at every member that had it
    ///   committed — which can only happen under the watermark, so the
    ///   install's progress jump covers it. Re-proposing it would deliver it
    ///   twice; it is dropped.
    pub(super) fn merge(
        mut base: Checkpoint,
        votes: &BTreeMap<ProcessId, Vote>,
    ) -> (Checkpoint, StateSnapshot) {
        let max_cballot = votes
            .values()
            .map(|(cballot, ..)| *cballot)
            .max()
            .unwrap_or(Ballot::BOTTOM);
        let mut records: BTreeMap<_, RecordSnapshot> = BTreeMap::new();
        for (cballot, checkpoint, snapshot) in votes.values() {
            for (id, snap) in &snapshot.records {
                match snap.phase {
                    Phase::Committed => {
                        records.insert(*id, snap.clone());
                    }
                    Phase::Accepted if *cballot == max_cballot => match records.get_mut(id) {
                        Some(known) if known.phase != Phase::Committed => {
                            known.local_ts = snap.local_ts;
                        }
                        Some(_) => {}
                        None => {
                            let global_ts = Timestamp::BOTTOM;
                            records.insert(
                                *id,
                                RecordSnapshot {
                                    global_ts,
                                    ..snap.clone()
                                },
                            );
                        }
                    },
                    _ => {}
                }
            }
            base.clock = base.clock.max(checkpoint.clock);
            base.dedup.merge(&checkpoint.dedup);
            base.merge_watermarks(&checkpoint.watermarks);
        }
        records.retain(|id, rec| rec.phase == Phase::Committed || !base.dedup.contains(*id));
        (base, StateSnapshot { records })
    }
}

impl WhiteBoxReplica {
    /// Figure 4, lines 35–36: start establishing a new ballot led by us.
    pub(super) fn start_recovery(&mut self, out: &mut Outbox) {
        if self.status == Status::Leader {
            return;
        }
        let ballot = self.ballot.next_for(self.config.id);
        self.recovery = Some(Recovery::new(ballot));
        Action::send_to_all(
            out,
            self.group_members.iter().copied(),
            WhiteBoxMsg::NewLeader { ballot },
        );
    }

    /// Figure 4, lines 37–41: vote for a prospective leader.
    pub(super) fn handle_new_leader(
        &mut self,
        now: Duration,
        from: ProcessId,
        ballot: Ballot,
        out: &mut Outbox,
    ) {
        if ballot <= self.ballot {
            return;
        }
        self.follow(now, Status::Recovering, ballot, out);
        out.push(Action::send(
            from,
            WhiteBoxMsg::NewLeaderAck {
                ballot,
                cballot: self.cballot,
                checkpoint: Box::new(self.checkpoint()),
                snapshot: self.snapshot(),
            },
        ));
    }

    /// Figure 4, lines 42–56: the prospective leader gathers votes, computes
    /// and installs its initial state, and sends it to the followers.
    pub(super) fn handle_new_leader_ack(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        cballot: Ballot,
        checkpoint: Checkpoint,
        snapshot: StateSnapshot,
        out: &mut Outbox,
    ) {
        if self.status != Status::Recovering || self.ballot != ballot {
            return;
        }
        let quorum = self.own_quorum();
        let vote = (cballot, checkpoint, snapshot);
        let Some(votes) = self
            .recovery
            .as_mut()
            .and_then(|r| r.vote(from, ballot, vote, quorum))
        else {
            return;
        };
        let (checkpoint, snapshot) = Recovery::merge(self.checkpoint(), &votes);
        self.install(ballot, &checkpoint, snapshot);
        // A fresh leadership starts member progress tracking from scratch;
        // members re-report within one compaction interval.
        self.progress.reset_member_progress();
        // Line 56: install the state at the followers — as checkpoint +
        // suffix, which doubles as catch-up state transfer for any member
        // whose progress lies below the recovered watermark.
        let followers = self.group_members.iter().copied();
        self.send_state(followers.filter(|p| *p != self.config.id), out);
        // We are in sync with our own state; a singleton group needs no
        // follower acknowledgements.
        self.handle_new_state_ack(self.config.id, ballot, out);
    }

    /// Figure 4, lines 57–62: a follower installs the new leader's state.
    ///
    /// Beyond the paper's precondition (`Recovering` in exactly this ballot),
    /// a `NEW_STATE` for a *strictly higher* ballot is accepted from any
    /// status: it collapses joining the ballot and installing its state into
    /// one step, which is how a replica that missed the whole `NEW_LEADER`
    /// exchange (it was partitioned away, or is itself a stale leader) is
    /// reconciled. This is safe for the same reason the two-step path is —
    /// the sender computed the state from a quorum of the higher ballot,
    /// whose snapshots cover everything any lower ballot could have
    /// committed.
    pub(super) fn handle_new_state(
        &mut self,
        now: Duration,
        from: ProcessId,
        ballot: Ballot,
        checkpoint: Checkpoint,
        snapshot: StateSnapshot,
        out: &mut Outbox,
    ) {
        let fresh_join = ballot > self.ballot;
        if !fresh_join && (self.status != Status::Recovering || self.ballot != ballot) {
            return;
        }
        self.recovery = None;
        self.follow(now, Status::Follower, ballot, out);
        self.install(ballot, &checkpoint, snapshot);
        out.push(Action::send(from, WhiteBoxMsg::NewStateAck { ballot }));
    }

    /// Figure 4, lines 63–68: the new leader finishes recovery once a quorum is
    /// in sync with its state.
    pub(super) fn handle_new_state_ack(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        out: &mut Outbox,
    ) {
        if self.status != Status::Recovering || self.ballot != ballot {
            return;
        }
        let quorum = self.own_quorum();
        if !self
            .recovery
            .as_mut()
            .is_some_and(|r| r.synced(from, ballot, quorum))
        {
            return;
        }
        self.lead(out);
    }

    /// Installs `ballot`'s initial state: `checkpoint` and `snapshot` as
    /// `Recovery::merge` computed them at the ballot's leader (line 55), or
    /// as its `NEW_STATE` carried them to a follower (lines 57–62).
    fn install(&mut self, ballot: Ballot, checkpoint: &Checkpoint, snapshot: StateSnapshot) {
        // Watermarks, the delivered filter and, the state-transfer case, a
        // progress jump over history pruned at a quorum.
        self.progress.install(checkpoint);
        // `delivered` means "DELIVER sent in this ballot" at its leader and
        // "applied here" at a follower. A committed record at or below the
        // recovered watermark needs no line-66 re-broadcast: a quorum
        // delivered it (that is what the watermark asserts) and any
        // straggler is jumped over it by the checkpoint in `NEW_STATE`.
        // Marking it delivered keeps it pruning-eligible instead of
        // re-broadcasting history after every leader change. Everything
        // above keeps the paper's behaviour: re-delivered by line 66,
        // duplicates filtered at the receivers through `max_delivered_gts`.
        let delivered_up_to = if ballot.is_led_by(self.config.id) {
            self.progress.watermark(self.own_group())
        } else {
            self.progress.max_delivered_gts()
        };
        self.records = snapshot
            .records
            .into_iter()
            .map(|(id, snap)| {
                let mut rec = MessageRecord::from_snapshot(snap);
                rec.delivered = rec.phase == Phase::Committed && rec.global_ts <= delivered_up_to;
                (id, rec)
            })
            .collect();
        // Rebuild the clock, the delivery-condition and compaction indexes.
        // With compaction enabled the new map holds only the suffix above
        // the watermark, so this costs O(suffix), not O(history).
        self.delivery = DeliveryQueue::new();
        self.delivery.observe(checkpoint.clock);
        for r in self.records.values() {
            if r.is_pending() {
                self.delivery.pend(r.local_ts, r.id());
            } else if r.phase == Phase::Committed && !r.delivered {
                self.delivery.commit(r.global_ts, r.id());
            }
        }
        let delivered = self.records.values().filter(|r| r.delivered);
        self.progress
            .reindex(delivered.map(|r| (r.global_ts, r.id())));
        self.prune_records();
        // cballot ← b: line 55 at the leader, lines 57–62 at a follower.
        self.cballot = ballot;
    }

    /// Sends `NEW_STATE` for our ballot — checkpoint plus records — to `to`.
    pub(super) fn send_state(&self, to: impl IntoIterator<Item = ProcessId>, out: &mut Outbox) {
        let state = WhiteBoxMsg::NewState {
            ballot: self.cballot,
            checkpoint: Box::new(self.checkpoint()),
            snapshot: self.snapshot(),
        };
        Action::send_to_all(out, to, state);
    }

    /// Our records beyond `START`, as `NEW_LEADER_ACK` and `NEW_STATE`
    /// carry them.
    fn snapshot(&self) -> StateSnapshot {
        let records = self
            .records
            .values()
            .filter(|r| r.phase != Phase::Start)
            .map(|r| (r.id(), r.snapshot()))
            .collect();
        StateSnapshot { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload};

    const G0: GroupId = GroupId(0);
    const G1: GroupId = GroupId(1);

    fn ts(time: u64) -> Timestamp {
        Timestamp::new(time, G0)
    }

    fn id(seq: u64) -> MsgId {
        MsgId::new(ProcessId(9), seq)
    }

    fn ballot(round: u64) -> Ballot {
        Ballot::new(round, ProcessId(0))
    }

    /// Message `seq`'s record in `phase`, with local timestamp `local` and
    /// global timestamp `global` (⊥ for 0).
    fn rec(seq: u64, phase: Phase, local: u64, global: u64) -> (MsgId, RecordSnapshot) {
        let msg = AppMessage::new(id(seq), Destination::single(G0), Payload::from("m"));
        let global_ts = if global == 0 {
            Timestamp::BOTTOM
        } else {
            ts(global)
        };
        let local_ts = ts(local);
        (
            id(seq),
            RecordSnapshot {
                msg,
                phase,
                local_ts,
                global_ts,
            },
        )
    }

    fn checkpoint(clock: u64) -> Checkpoint {
        Checkpoint {
            group: G0,
            clock,
            ..Checkpoint::default()
        }
    }

    /// A vote of a voter synchronised with ballot `round`.
    fn vote(round: u64, checkpoint: Checkpoint, records: Vec<(MsgId, RecordSnapshot)>) -> Vote {
        let records = records.into_iter().collect();
        (ballot(round), checkpoint, StateSnapshot { records })
    }

    /// Lines 44–55 over `votes`, cast by processes 1, 2, … in order, at a
    /// new leader whose own checkpoint is `base`.
    fn merge(base: Checkpoint, votes: Vec<Vote>) -> (Checkpoint, StateSnapshot) {
        let votes = (1..).map(ProcessId).zip(votes).collect();
        Recovery::merge(base, &votes)
    }

    #[test]
    fn committed_anywhere_wins() {
        // Voter 1 has the maximal cballot and only accepted m0 and m1; voter
        // 2 is behind but saw both commit. Voter 3 accepted m0 at the maximal
        // cballot after voter 2's commit is known: it changes nothing.
        let (_, state) = merge(
            checkpoint(0),
            vec![
                vote(3, checkpoint(0), vec![rec(0, Phase::Accepted, 4, 0)]),
                vote(
                    2,
                    checkpoint(0),
                    vec![
                        rec(0, Phase::Committed, 2, 5),
                        rec(1, Phase::Committed, 3, 6),
                    ],
                ),
                vote(3, checkpoint(0), vec![rec(0, Phase::Accepted, 7, 0)]),
            ],
        );
        assert_eq!(state.records.len(), 2);
        for (seq, local, global) in [(0, 2, 5), (1, 3, 6)] {
            let r = &state.records[&id(seq)];
            assert_eq!(r.phase, Phase::Committed, "m{seq}");
            assert_eq!((r.local_ts, r.global_ts), (ts(local), ts(global)), "m{seq}");
        }
    }

    #[test]
    fn accepted_counts_only_at_the_maximal_cballot() {
        // m0 is accepted at both voters of the maximal cballot 4 (the later
        // voter's local timestamp stands); m1 only at a voter of cballot 3.
        let (_, state) = merge(
            checkpoint(0),
            vec![
                vote(4, checkpoint(0), vec![rec(0, Phase::Accepted, 2, 0)]),
                vote(3, checkpoint(0), vec![rec(1, Phase::Accepted, 3, 0)]),
                vote(4, checkpoint(0), vec![rec(0, Phase::Accepted, 5, 0)]),
            ],
        );
        assert_eq!(state.records.keys().copied().collect::<Vec<_>>(), [id(0)]);
        let r = &state.records[&id(0)];
        assert_eq!(r.phase, Phase::Accepted);
        assert_eq!((r.local_ts, r.global_ts), (ts(5), Timestamp::BOTTOM));
    }

    #[test]
    fn proposed_only_records_are_dropped() {
        // m0 was only proposed, even at the maximal cballot; m1 was accepted
        // there, but the merged delivered filter knows it was delivered
        // everywhere and pruned, so re-proposing it would deliver it twice.
        let mut pruned = checkpoint(0);
        pruned.dedup.insert(id(1));
        let (_, state) = merge(
            checkpoint(0),
            vec![
                vote(2, checkpoint(0), vec![rec(0, Phase::Proposed, 1, 0)]),
                vote(2, pruned, vec![rec(1, Phase::Accepted, 2, 0)]),
            ],
        );
        assert!(state.records.is_empty());
    }

    #[test]
    fn the_clock_is_the_maximum() {
        let votes = || {
            vec![
                vote(1, checkpoint(7), vec![]),
                vote(1, checkpoint(5), vec![]),
            ]
        };
        assert_eq!(merge(checkpoint(3), votes()).0.clock, 7);
        assert_eq!(merge(checkpoint(9), votes()).0.clock, 9);
    }

    #[test]
    fn watermarks_and_filters_merge() {
        let mut base = checkpoint(0);
        base.watermarks.insert(G0, ts(2));
        base.dedup.insert(id(0));
        let mut first = checkpoint(0);
        first.watermarks.insert(G0, ts(4));
        first.watermarks.insert(G1, Timestamp::new(1, G1));
        first.dedup.insert(id(1));
        let mut second = checkpoint(0);
        second.watermarks.insert(G0, ts(3));
        second.watermarks.insert(G1, Timestamp::new(3, G1));
        second.dedup.insert(id(2));
        let (merged, _) = merge(base, vec![vote(1, first, vec![]), vote(1, second, vec![])]);
        let expected = BTreeMap::from([(G0, ts(4)), (G1, Timestamp::new(3, G1))]);
        assert_eq!(merged.watermarks, expected);
        assert!((0..3).all(|seq| merged.dedup.contains(id(seq))));
        assert!(!merged.dedup.contains(id(3)));
    }

    #[test]
    fn handshake_counts_a_vote_quorum_then_a_sync_quorum() {
        let b = ballot(2);
        let mut recovery = Recovery::new(b);
        let v = || vote(1, checkpoint(0), vec![]);
        assert!(recovery.vote(ProcessId(1), ballot(3), v(), 2).is_none());
        assert!(
            !recovery.synced(ProcessId(1), b, 1),
            "no state to sync with yet"
        );
        assert!(recovery.vote(ProcessId(1), b, v(), 2).is_none());
        assert!(
            recovery.vote(ProcessId(1), b, v(), 2).is_none(),
            "one vote each"
        );
        let votes = recovery
            .vote(ProcessId(2), b, v(), 2)
            .expect("a quorum voted");
        assert_eq!(
            votes.keys().copied().collect::<Vec<_>>(),
            [ProcessId(1), ProcessId(2)]
        );
        assert!(
            recovery.vote(ProcessId(3), b, v(), 2).is_none(),
            "late vote"
        );
        assert!(!recovery.synced(ProcessId(1), b, 2));
        assert!(!recovery.synced(ProcessId(2), ballot(3), 2), "other ballot");
        assert!(!recovery.synced(ProcessId(1), b, 2), "one sync each");
        assert!(recovery.synced(ProcessId(2), b, 2));
    }
}
