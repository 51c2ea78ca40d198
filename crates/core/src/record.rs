//! Per-message bookkeeping at a white-box replica.
//!
//! A [`MessageRecord`] gathers everything a process knows about one
//! application message: the entries of the `Phase`, `LocalTS`, `GlobalTS` and
//! `Delivered` arrays of Figure 3, plus the transient bookkeeping needed to
//! drive the handlers of Figure 4 (which `ACCEPT`s and `ACCEPT_ACK`s have been
//! received so far).
//!
//! A replica keeps one record per message for as long as the message is
//! resident, so the record is flat: a message has one to a handful of
//! destination groups, and the accepts, the ballot vectors and the ack
//! tallies are short vectors held in place and searched in place, so a
//! one- or two-group message's record allocates nothing past its own box.
//! Acks are counted as bitmasks over each group's members in configuration
//! order. What only the commit decision reads (the acks) is released at
//! commit.

use std::collections::BTreeMap;

use wbam_types::{AppMessage, Ballot, GroupId, MsgId, Phase, ProcessId, Timestamp};

use crate::inline::InlineVec;
use crate::messages::{BallotVector, RecordSnapshot};

/// The `ACCEPT_ACK`s gathered under one ballot vector.
#[derive(Debug, Clone, Default, PartialEq)]
struct AckCandidate {
    vector: BallotVector,
    /// The distinct acknowledging processes as bitmasks, sorted by key: the
    /// member at position `i` of group `g`'s configuration is bit `i % 64`
    /// of the mask keyed `(g, i / 64)`.
    ackers: InlineVec<((GroupId, u32), u64), 2>,
}

impl AckCandidate {
    /// Notes the member at `index` of `group`.
    fn add(&mut self, group: GroupId, index: usize) {
        let key = (group, (index / 64) as u32);
        let bit = 1u64 << (index % 64);
        match self.ackers.binary_search_by_key(&key, |a| a.0) {
            Ok(at) => self.ackers[at].1 |= bit,
            Err(at) => self.ackers.insert(at, (key, bit)),
        }
    }

    /// Whether the member at `index` of `group` acknowledged.
    fn has(&self, group: GroupId, index: usize) -> bool {
        let key = (group, (index / 64) as u32);
        self.ackers
            .binary_search_by_key(&key, |a| a.0)
            .is_ok_and(|at| self.ackers[at].1 & (1u64 << (index % 64)) != 0)
    }

    /// Number of distinct acknowledging processes of `group`.
    fn acked_in(&self, group: GroupId) -> usize {
        self.ackers
            .iter()
            .filter(|a| a.0 .0 == group)
            .map(|a| a.1.count_ones() as usize)
            .sum()
    }
}

/// Everything a replica knows about one application message.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageRecord {
    /// The application message (payload and destination set).
    pub msg: AppMessage,
    /// `Phase[m]`.
    pub phase: Phase,
    /// `LocalTS[m]` — the local timestamp of the message at this group.
    pub local_ts: Timestamp,
    /// `GlobalTS[m]` — the message's global timestamp, once known.
    pub global_ts: Timestamp,
    /// `Delivered[m]` — whether the *leader* has already initiated delivery.
    pub delivered: bool,
    /// The most recent `ACCEPT` received from each destination group's leader
    /// — proposing group, ballot of the proposal, proposed local timestamp —
    /// sorted by group. Kept for as long as the record lives: a re-sent
    /// `ACCEPT` (message recovery) is re-acknowledged from it.
    accepts: InlineVec<(GroupId, Ballot, Timestamp), 2>,
    /// `ACCEPT_ACK`s received so far, one candidate per distinct ballot vector
    /// in order of first arrival; the first in place. Only the commit
    /// decision reads them, so [`commit`](Self::commit) releases them.
    acks: InlineVec<AckCandidate, 1>,
    /// At a leader, the members of its own group whose `ACCEPT_ACK` for this
    /// message it counted in its current ballot, as a bitmask over the
    /// group's members in configuration order: the members known to hold
    /// this record, to whom `DELIVER` goes by reference. Never snapshotted,
    /// so a record installed for a new ballot starts with no holders.
    holders: u64,
}

impl MessageRecord {
    /// Creates a fresh record for a message in the `START` phase.
    pub fn new(msg: AppMessage) -> Self {
        MessageRecord {
            msg,
            phase: Phase::Start,
            local_ts: Timestamp::BOTTOM,
            global_ts: Timestamp::BOTTOM,
            delivered: false,
            accepts: InlineVec::new(),
            acks: InlineVec::new(),
            holders: 0,
        }
    }

    /// The message identifier.
    pub fn id(&self) -> MsgId {
        self.msg.id
    }

    /// Records an `ACCEPT` from the leader of `group`. A later proposal from
    /// the same group (higher ballot) supersedes an earlier one; stale
    /// proposals with lower ballots are ignored.
    pub fn record_accept(&mut self, group: GroupId, ballot: Ballot, local_ts: Timestamp) {
        match self.accepts.binary_search_by_key(&group, |a| a.0) {
            Ok(at) => {
                if self.accepts[at].1 <= ballot {
                    self.accepts[at] = (group, ballot, local_ts);
                }
            }
            Err(at) => self.accepts.insert(at, (group, ballot, local_ts)),
        }
    }

    /// The `ACCEPT` currently recorded for `group`: the proposal's ballot and
    /// local timestamp.
    pub fn accept_of(&self, group: GroupId) -> Option<(Ballot, Timestamp)> {
        self.accepts
            .binary_search_by_key(&group, |a| a.0)
            .ok()
            .map(|at| (self.accepts[at].1, self.accepts[at].2))
    }

    /// Whether `ACCEPT`s from the leaders of all destination groups have been
    /// received.
    pub fn has_all_accepts(&self) -> bool {
        self.msg.dest.iter().all(|g| self.accept_of(g).is_some())
    }

    /// The global timestamp implied by the currently known proposals (max of
    /// the local timestamps), if all proposals are known.
    pub fn implied_global_ts(&self) -> Option<Timestamp> {
        self.has_all_accepts()
            .then(|| Timestamp::global_of(self.accepts.iter().map(|a| a.2)))
    }

    /// The ballot vector an `ACCEPT_ACK` for this message carries: the ballot
    /// of the `ACCEPT` recorded for each group.
    pub fn ballot_vector(&self) -> BallotVector {
        self.accepts.iter().map(|a| (a.0, a.1)).collect()
    }

    /// The leaders that made the recorded proposals, in group order — the
    /// recipients of this process's `ACCEPT_ACK`.
    pub fn accept_leaders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.accepts.iter().filter_map(|a| a.1.leader())
    }

    /// Records an `ACCEPT_ACK` from the member at position `index` of
    /// `group`'s configuration, carrying the given ballot vector. Returns the
    /// number of distinct acknowledging members of `group` for that vector
    /// after the update.
    pub fn record_ack(&mut self, vector: BallotVector, group: GroupId, index: usize) -> usize {
        let at = match self.acks.iter().position(|c| c.vector == vector) {
            Some(at) => at,
            None => {
                self.acks.push(AckCandidate {
                    vector,
                    ackers: InlineVec::new(),
                });
                self.acks.len() - 1
            }
        };
        let candidate = &mut self.acks[at];
        candidate.add(group, index);
        candidate.acked_in(group)
    }

    /// Whether, for some ballot vector, a quorum of acknowledgements has been
    /// received from every destination group (and the vector matches the
    /// `ACCEPT`s currently recorded). `quorum_size` maps each group to its
    /// quorum size; `must_include` is a member (group and position in its
    /// configuration) that must be among the acknowledgers of its own group
    /// (the leader itself, per Figure 4 line 17 "including myself").
    ///
    /// The accept-match is checked *per candidate vector*, not on the winner:
    /// acks gathered under a since-superseded ballot (a destination group
    /// changed leaders mid-round) can form a complete quorum of their own,
    /// and if a stale vector could be returned it would permanently shadow
    /// the consistent one — the caller would reject it against the current
    /// accepts and conclude "no quorum" forever, live-locking the message
    /// (found by the deterministic-runtime explorer; see
    /// `tests/regressions/rt_corpus.tokens`).
    pub fn quorum_acked(
        &self,
        quorum_size: &BTreeMap<GroupId, usize>,
        must_include: Option<(GroupId, usize)>,
    ) -> Option<&BallotVector> {
        self.acks
            .iter()
            .find(|candidate| {
                // The vector must cover the destination groups and agree with
                // the ACCEPT currently recorded for each of them (Figure 4
                // line 17: the acks and the accepts name the same ballots).
                self.msg.dest.iter().all(|g| {
                    let same_ballot = match (self.accept_of(g), candidate.vector.get(g)) {
                        (Some((accepted, _)), Some(acked)) => accepted == acked,
                        _ => false,
                    };
                    same_ballot
                        && quorum_size
                            .get(&g)
                            .is_some_and(|q| candidate.acked_in(g) >= *q)
                }) && must_include.map_or(true, |(g, index)| candidate.has(g, index))
            })
            .map(|candidate| &candidate.vector)
    }

    /// Notes that the group member at `index` (configuration order) holds
    /// this record. Members past the mask's 64 bits are never noted, so they
    /// always get the full `DELIVER`.
    pub fn add_holder(&mut self, index: usize) {
        if let Some(bit) = 1u64.checked_shl(index as u32) {
            self.holders |= bit;
        }
    }

    /// Whether the group member at `index` was noted by
    /// [`add_holder`](Self::add_holder).
    pub fn held_by(&self, index: usize) -> bool {
        1u64.checked_shl(index as u32)
            .is_some_and(|bit| self.holders & bit != 0)
    }

    /// Figure 4, lines 19–20 and 26–28: the message is `COMMITTED` with
    /// `global_ts`. Releases the ack bookkeeping — acks exist to reach this
    /// decision, a committed record ignores further `ACCEPT_ACK`s, and
    /// recovery rebuilds records from snapshots that never carried them. The
    /// holders stay: `DELIVER` is sent after the commit.
    pub fn commit(&mut self, global_ts: Timestamp) {
        self.phase = Phase::Committed;
        self.global_ts = global_ts;
        self.acks = InlineVec::new();
    }

    /// Whether the message is pending in the sense of the delivery condition
    /// (Figure 4 line 21): its phase is `PROPOSED` or `ACCEPTED`.
    pub fn is_pending(&self) -> bool {
        self.phase.is_pending()
    }

    /// Produces the snapshot of this record exchanged during recovery.
    pub fn snapshot(&self) -> RecordSnapshot {
        RecordSnapshot {
            msg: self.msg.clone(),
            phase: self.phase,
            local_ts: self.local_ts,
            global_ts: self.global_ts,
        }
    }

    /// Rebuilds a record from a recovery snapshot, discarding transient
    /// bookkeeping (accept/ack sets).
    pub fn from_snapshot(snap: RecordSnapshot) -> Self {
        MessageRecord {
            phase: snap.phase,
            local_ts: snap.local_ts,
            global_ts: snap.global_ts,
            ..MessageRecord::new(snap.msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::{Destination, Payload};

    fn app_msg() -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(30), 0),
            Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
            Payload::from("p"),
        )
    }

    fn quorums() -> BTreeMap<GroupId, usize> {
        let mut m = BTreeMap::new();
        m.insert(GroupId(0), 2);
        m.insert(GroupId(1), 2);
        m
    }

    #[test]
    fn fresh_record_is_start_phase() {
        let r = MessageRecord::new(app_msg());
        assert_eq!(r.phase, Phase::Start);
        assert_eq!(r.local_ts, Timestamp::BOTTOM);
        assert!(!r.delivered);
        assert!(!r.has_all_accepts());
        assert_eq!(r.id(), app_msg().id);
    }

    #[test]
    fn accepts_complete_when_all_groups_heard_from() {
        let mut r = MessageRecord::new(app_msg());
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(3, GroupId(0)),
        );
        assert!(!r.has_all_accepts());
        assert_eq!(r.implied_global_ts(), None);
        r.record_accept(
            GroupId(1),
            Ballot::new(1, ProcessId(3)),
            Timestamp::new(5, GroupId(1)),
        );
        assert!(r.has_all_accepts());
        assert_eq!(r.implied_global_ts(), Some(Timestamp::new(5, GroupId(1))));
    }

    #[test]
    fn later_ballot_supersedes_earlier_accept() {
        let mut r = MessageRecord::new(app_msg());
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(3, GroupId(0)),
        );
        r.record_accept(
            GroupId(0),
            Ballot::new(2, ProcessId(1)),
            Timestamp::new(9, GroupId(0)),
        );
        assert_eq!(
            r.accept_of(GroupId(0)),
            Some((Ballot::new(2, ProcessId(1)), Timestamp::new(9, GroupId(0))))
        );
        // A stale lower-ballot proposal does not overwrite.
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(1, GroupId(0)),
        );
        assert_eq!(
            r.accept_of(GroupId(0)),
            Some((Ballot::new(2, ProcessId(1)), Timestamp::new(9, GroupId(0))))
        );
    }

    #[test]
    fn quorum_detection_requires_all_groups() {
        let mut r = MessageRecord::new(app_msg());
        let mut vector = BallotVector::new();
        vector.insert(GroupId(0), Ballot::new(1, ProcessId(0)));
        vector.insert(GroupId(1), Ballot::new(1, ProcessId(3)));
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(3, GroupId(0)),
        );
        r.record_accept(
            GroupId(1),
            Ballot::new(1, ProcessId(3)),
            Timestamp::new(5, GroupId(1)),
        );

        r.record_ack(vector.clone(), GroupId(0), 0);
        r.record_ack(vector.clone(), GroupId(0), 1);
        assert_eq!(r.quorum_acked(&quorums(), None), None);

        r.record_ack(vector.clone(), GroupId(1), 3);
        assert_eq!(r.quorum_acked(&quorums(), None), None);
        r.record_ack(vector.clone(), GroupId(1), 4);
        assert_eq!(r.quorum_acked(&quorums(), None), Some(&vector));

        // Requiring a specific acker filters vectors that lack it.
        assert_eq!(r.quorum_acked(&quorums(), Some((GroupId(0), 2))), None);
        assert_eq!(
            r.quorum_acked(&quorums(), Some((GroupId(0), 0))),
            Some(&vector)
        );
    }

    #[test]
    fn acks_with_different_vectors_do_not_mix() {
        let mut r = MessageRecord::new(app_msg());
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(3, GroupId(0)),
        );
        r.record_accept(
            GroupId(1),
            Ballot::new(1, ProcessId(3)),
            Timestamp::new(5, GroupId(1)),
        );
        let mut v1 = BallotVector::new();
        v1.insert(GroupId(0), Ballot::new(1, ProcessId(0)));
        v1.insert(GroupId(1), Ballot::new(1, ProcessId(3)));
        let mut v2 = v1.clone();
        v2.insert(GroupId(1), Ballot::new(2, ProcessId(4)));

        r.record_ack(v1.clone(), GroupId(0), 0);
        r.record_ack(v1.clone(), GroupId(0), 1);
        r.record_ack(v2.clone(), GroupId(1), 3);
        r.record_ack(v2.clone(), GroupId(1), 4);
        // Neither vector alone has quorums in both groups.
        assert_eq!(r.quorum_acked(&quorums(), None), None);
    }

    #[test]
    fn stale_ack_quorum_does_not_shadow_the_live_one() {
        // A destination group changed leaders mid-round: a full quorum of
        // acks exists under the old vector (it arrived first, so it is the
        // first candidate examined) and another under the current one. The
        // old vector no longer matches the recorded ACCEPTs, so the current
        // vector must win — returning the stale one would make the caller
        // conclude "no quorum" forever.
        let mut r = MessageRecord::new(app_msg());
        let mut stale = BallotVector::new();
        stale.insert(GroupId(0), Ballot::new(1, ProcessId(0)));
        stale.insert(GroupId(1), Ballot::new(1, ProcessId(3)));
        let mut live = BallotVector::new();
        live.insert(GroupId(0), Ballot::new(1, ProcessId(1)));
        live.insert(GroupId(1), Ballot::new(1, ProcessId(3)));

        // Accepts reflect the new group-0 leader.
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(1)),
            Timestamp::new(5, GroupId(0)),
        );
        r.record_accept(
            GroupId(1),
            Ballot::new(1, ProcessId(3)),
            Timestamp::new(8, GroupId(1)),
        );

        // Complete quorums under both vectors.
        r.record_ack(stale.clone(), GroupId(0), 0);
        r.record_ack(stale.clone(), GroupId(0), 2);
        r.record_ack(stale.clone(), GroupId(1), 3);
        r.record_ack(stale.clone(), GroupId(1), 4);
        r.record_ack(live.clone(), GroupId(0), 0);
        r.record_ack(live.clone(), GroupId(0), 1);
        r.record_ack(live.clone(), GroupId(1), 3);
        r.record_ack(live.clone(), GroupId(1), 4);

        assert_eq!(
            r.acks[0].vector, stale,
            "the stale candidate is examined first"
        );
        assert_eq!(r.quorum_acked(&quorums(), None), Some(&live));

        // The same holds while the live vector's quorum is still one ack
        // short: the stale quorum must not stand in for it.
        let mut short = MessageRecord::new(app_msg());
        short.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(1)),
            Timestamp::new(5, GroupId(0)),
        );
        short.record_accept(
            GroupId(1),
            Ballot::new(1, ProcessId(3)),
            Timestamp::new(8, GroupId(1)),
        );
        for (g, p) in [(0, 0), (0, 2), (1, 3), (1, 4)] {
            short.record_ack(stale.clone(), GroupId(g), p);
        }
        for (g, p) in [(0, 0), (0, 1), (1, 3)] {
            short.record_ack(live.clone(), GroupId(g), p);
        }
        assert_eq!(short.quorum_acked(&quorums(), None), None);
        short.record_ack(live.clone(), GroupId(1), 4);
        assert_eq!(short.quorum_acked(&quorums(), None), Some(&live));
    }

    #[test]
    fn a_committed_record_holds_no_ack_state() {
        let mut r = MessageRecord::new(app_msg());
        let mut v = BallotVector::new();
        v.insert(GroupId(0), Ballot::new(1, ProcessId(0)));
        v.insert(GroupId(1), Ballot::new(1, ProcessId(3)));
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(3, GroupId(0)),
        );
        r.record_accept(
            GroupId(1),
            Ballot::new(1, ProcessId(3)),
            Timestamp::new(5, GroupId(1)),
        );
        for (g, p) in [(0, 0), (0, 1), (1, 3), (1, 4)] {
            r.record_ack(v.clone(), GroupId(g), p);
        }
        assert!(r.quorum_acked(&quorums(), None).is_some());
        let gts = r.implied_global_ts().unwrap();

        r.commit(gts);
        assert_eq!(r.phase, Phase::Committed);
        assert_eq!(r.global_ts, Timestamp::new(5, GroupId(1)));
        assert!(r.acks.is_empty());
        assert!(!r.acks.spilled(), "the ack storage is released");
        // The accepts stay: a re-sent ACCEPT is re-acknowledged from them.
        assert!(r.has_all_accepts());
        assert_eq!(r.ballot_vector(), v);
    }

    #[test]
    fn accepts_are_kept_in_group_order_whatever_the_arrival_order() {
        let mut r = MessageRecord::new(app_msg());
        r.record_accept(
            GroupId(1),
            Ballot::new(3, ProcessId(4)),
            Timestamp::new(2, GroupId(1)),
        );
        assert!(!r.accepts.spilled(), "held in place for two groups");
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(4, GroupId(0)),
        );
        let v = r.ballot_vector();
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(GroupId(0)), Some(Ballot::new(1, ProcessId(0))));
        assert_eq!(v.get(GroupId(1)), Some(Ballot::new(3, ProcessId(4))));
        assert_eq!(
            r.accept_leaders().collect::<Vec<_>>(),
            [ProcessId(0), ProcessId(4)]
        );
        assert_eq!(r.implied_global_ts(), Some(Timestamp::new(4, GroupId(0))));
    }

    #[test]
    fn duplicate_acks_count_once() {
        let mut r = MessageRecord::new(app_msg());
        let mut v = BallotVector::new();
        v.insert(GroupId(0), Ballot::new(1, ProcessId(0)));
        v.insert(GroupId(1), Ballot::new(1, ProcessId(3)));
        assert_eq!(r.record_ack(v.clone(), GroupId(0), 0), 1);
        assert_eq!(r.record_ack(v.clone(), GroupId(0), 0), 1);
        assert_eq!(r.record_ack(v, GroupId(0), 1), 2);
    }

    #[test]
    fn snapshot_round_trip_drops_transient_state() {
        let mut r = MessageRecord::new(app_msg());
        r.phase = Phase::Committed;
        r.local_ts = Timestamp::new(1, GroupId(0));
        r.global_ts = Timestamp::new(2, GroupId(1));
        r.delivered = true;
        r.record_accept(
            GroupId(0),
            Ballot::new(1, ProcessId(0)),
            Timestamp::new(1, GroupId(0)),
        );
        r.add_holder(1);
        let snap = r.snapshot();
        let back = MessageRecord::from_snapshot(snap);
        assert_eq!(back.phase, Phase::Committed);
        assert_eq!(back.local_ts, Timestamp::new(1, GroupId(0)));
        assert_eq!(back.global_ts, Timestamp::new(2, GroupId(1)));
        assert!(!back.delivered, "delivery flag is not carried over");
        assert!(back.accepts.is_empty());
        assert!(back.acks.is_empty());
        assert!(!back.held_by(1), "holders are not carried over");
    }

    #[test]
    fn holders_survive_the_commit_and_ignore_members_past_the_mask() {
        let mut r = MessageRecord::new(app_msg());
        r.add_holder(0);
        r.add_holder(2);
        r.add_holder(64);
        r.commit(Timestamp::new(2, GroupId(1)));
        let held: Vec<usize> = (0..70).filter(|&i| r.held_by(i)).collect();
        assert_eq!(held, [0, 2]);
    }
}
