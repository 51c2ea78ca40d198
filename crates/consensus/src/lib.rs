//! Multi-Paxos replicated log — the black-box consensus substrate used by the
//! baseline multicast protocols (fault-tolerant Skeen and FastCast).
//!
//! The paper's competitor protocols (§VI, "Competitor protocols") replicate
//! each multicast group with consensus: every action of Skeen's protocol at a
//! group (assigning a local timestamp, recording a global timestamp) is first
//! agreed upon by the group through a consensus instance. This crate provides
//! that substrate as an *embeddable*, sans-IO multi-Paxos core:
//!
//! * [`PaxosReplica`] — one group member. The distinguished leader sequences
//!   commands into slots and runs phase 2 (`ACCEPT`/`ACCEPTED`) against its
//!   peers; a newly elected leader first runs phase 1 (`PREPARE`/`PROMISE`) to
//!   recover possibly chosen commands.
//! * [`PaxosMsg`] — the wire messages, generic over the command type.
//! * [`PaxosOutput`] — what a step produced: messages to send and commands
//!   newly *decided* (chosen and contiguous in the log), in log order.
//!
//! The baselines embed a `PaxosReplica<Command>` per group inside their own
//! protocol nodes.
//!
//! # Example
//!
//! ```
//! use wbam_consensus::{PaxosConfig, PaxosReplica};
//! use wbam_types::ProcessId;
//!
//! let members = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
//! let mut leader: PaxosReplica<String> =
//!     PaxosReplica::new(PaxosConfig::new(ProcessId(0), members.clone()));
//! // The initial leader can propose immediately (implicit phase 1 for ballot 1).
//! let out = leader.propose("set x = 1".to_string());
//! assert_eq!(out.outgoing.len(), 3); // ACCEPT to every member, itself included
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use wbam_types::{Ballot, ProcessId};

/// A slot (position) in the replicated log.
pub type Slot = u64;

/// Wire messages of multi-Paxos, generic over the replicated command type `C`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PaxosMsg<C> {
    /// Phase 1a: a prospective leader asks acceptors to join `ballot`.
    Prepare {
        /// The ballot being established.
        ballot: Ballot,
    },
    /// Phase 1b: an acceptor joins `ballot` and reports every value it has
    /// accepted so far.
    Promise {
        /// The joined ballot.
        ballot: Ballot,
        /// Previously accepted values: slot → (ballot, command).
        accepted: BTreeMap<Slot, (Ballot, C)>,
    },
    /// Phase 2a: the leader asks acceptors to accept `cmd` in `slot`.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// The log slot.
        slot: Slot,
        /// The command.
        cmd: C,
    },
    /// Phase 2b: an acceptor accepted the proposal for `slot` in `ballot`.
    Accepted {
        /// The acceptor's ballot.
        ballot: Ballot,
        /// The log slot.
        slot: Slot,
    },
    /// The leader announces that the command in `slot` has been chosen.
    /// (The classic "learn"/commit message; it keeps followers' logs moving
    /// without a broadcast of every 2b message.)
    Chosen {
        /// The log slot.
        slot: Slot,
        /// The chosen command.
        cmd: C,
    },
}

/// Configuration of one Paxos replica.
#[derive(Debug, Clone)]
pub struct PaxosConfig {
    /// This replica's identity.
    pub id: ProcessId,
    /// All members of the replication group, in configuration order. The
    /// first member is the initial leader and may skip phase 1 for ballot
    /// `(1, leader)` — the standard multi-Paxos optimisation.
    pub members: Vec<ProcessId>,
}

impl PaxosConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `members` does not contain `id` or is empty.
    pub fn new(id: ProcessId, members: Vec<ProcessId>) -> Self {
        assert!(!members.is_empty(), "paxos group must have members");
        assert!(members.contains(&id), "replica must belong to the group");
        PaxosConfig { id, members }
    }

    /// Quorum size (majority) of the group.
    pub fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// The initial leader (first member).
    pub fn initial_leader(&self) -> ProcessId {
        self.members[0]
    }
}

/// The result of feeding an event into a [`PaxosReplica`].
#[derive(Debug, Clone, PartialEq)]
pub struct PaxosOutput<C> {
    /// Messages to send, as `(recipient, message)` pairs.
    pub outgoing: Vec<(ProcessId, PaxosMsg<C>)>,
    /// Commands newly decided, in log order. A command is reported exactly
    /// once, and only when every lower slot has also been decided.
    pub decided: Vec<(Slot, C)>,
}

impl<C> Default for PaxosOutput<C> {
    fn default() -> Self {
        PaxosOutput {
            outgoing: Vec::new(),
            decided: Vec::new(),
        }
    }
}

impl<C> PaxosOutput<C> {
    fn merge(&mut self, other: PaxosOutput<C>) {
        self.outgoing.extend(other.outgoing);
        self.decided.extend(other.decided);
    }
}

/// One member of a multi-Paxos replication group (proposer + acceptor +
/// learner in a single object, as in practical Paxos deployments).
#[derive(Debug, Clone)]
pub struct PaxosReplica<C> {
    config: PaxosConfig,
    /// Acceptor state: the highest ballot joined.
    promised: Ballot,
    /// Acceptor state: accepted proposals per slot.
    accepted: BTreeMap<Slot, (Ballot, C)>,
    /// Leader state: the ballot we lead, if we believe we are the leader.
    leading: Option<Ballot>,
    /// Leader state: next free slot.
    next_slot: Slot,
    /// Leader state: acknowledgements per slot.
    acks: BTreeMap<Slot, BTreeSet<ProcessId>>,
    /// Leader state: proposals in flight (needed to re-send and to learn).
    in_flight: BTreeMap<Slot, C>,
    /// Phase-1 state when establishing leadership.
    promises: BTreeMap<ProcessId, BTreeMap<Slot, (Ballot, C)>>,
    campaigning: Option<Ballot>,
    /// Learner state: chosen commands.
    chosen: BTreeMap<Slot, C>,
    /// Learner state: next slot to report as decided (everything below is
    /// already reported).
    next_to_decide: Slot,
    /// Log-compaction frontier: every slot below it has been discarded from
    /// the acceptor/learner state (its effects live on in the embedding
    /// protocol's checkpoint). Slots below the frontier are never re-accepted
    /// or re-reported.
    compacted_below: Slot,
}

impl<C: Clone + PartialEq> PaxosReplica<C> {
    /// Creates a replica. The initial leader (first member) starts leading
    /// ballot `(1, leader)`; everyone else starts as a follower of that ballot.
    pub fn new(config: PaxosConfig) -> Self {
        let initial_ballot = Ballot::new(1, config.initial_leader());
        let leading = if config.id == config.initial_leader() {
            Some(initial_ballot)
        } else {
            None
        };
        PaxosReplica {
            promised: initial_ballot,
            accepted: BTreeMap::new(),
            leading,
            next_slot: 0,
            acks: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            promises: BTreeMap::new(),
            campaigning: None,
            chosen: BTreeMap::new(),
            next_to_decide: 0,
            compacted_below: 0,
            config,
        }
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.leading.is_some()
    }

    /// Number of log slots decided so far.
    pub fn decided_len(&self) -> Slot {
        self.next_to_decide
    }

    /// The chosen command in a slot, if the replica has learnt it.
    pub fn chosen_in(&self, slot: Slot) -> Option<&C> {
        self.chosen.get(&slot)
    }

    /// The compaction frontier: slots below it have been discarded.
    pub fn compacted_below(&self) -> Slot {
        self.compacted_below
    }

    /// Number of log entries currently resident (acceptor + learner state) —
    /// the quantity bounded by compaction.
    pub fn log_len(&self) -> usize {
        self.accepted.len().max(self.chosen.len())
    }

    /// Discards every log slot below `slot` from the acceptor and learner
    /// state. The caller must guarantee the prefix is *globally stable* —
    /// decided everywhere it matters and captured in a checkpoint — because a
    /// peer can never re-learn a compacted slot from this replica again; it
    /// recovers via checkpoint-based state transfer instead
    /// ([`Self::install_snapshot`]). Slots at or above `next_to_decide` are
    /// never discarded (compacting an undecided suffix would lose data), so
    /// the effective frontier is `min(slot, next_to_decide)`.
    pub fn compact_below(&mut self, slot: Slot) {
        let frontier = slot.min(self.next_to_decide).max(self.compacted_below);
        self.compacted_below = frontier;
        self.accepted = self.accepted.split_off(&frontier);
        self.chosen = self.chosen.split_off(&frontier);
        self.in_flight = self.in_flight.split_off(&frontier);
        self.acks = self.acks.split_off(&frontier);
    }

    /// The resident chosen suffix (`compacted_below..`), for building a
    /// catch-up state transfer for a lagging peer.
    pub fn chosen_suffix(&self) -> Vec<(Slot, C)> {
        self.chosen
            .iter()
            .map(|(slot, cmd)| (*slot, cmd.clone()))
            .collect()
    }

    /// Installs a catch-up snapshot from a peer: jumps the decision frontier
    /// to `frontier` (everything below is covered by the accompanying
    /// checkpoint) and learns the peer's chosen suffix. Newly contiguous
    /// decisions are reported in the output exactly once, like any other
    /// decision. A stale snapshot (frontier at or below our own progress)
    /// only merges the entries.
    pub fn install_snapshot(&mut self, frontier: Slot, entries: Vec<(Slot, C)>) -> PaxosOutput<C> {
        let mut out = PaxosOutput::default();
        if frontier > self.next_to_decide {
            self.next_to_decide = frontier;
            self.compacted_below = self.compacted_below.max(frontier);
            self.accepted = self.accepted.split_off(&frontier);
            self.chosen = self.chosen.split_off(&frontier);
        }
        for (slot, cmd) in entries {
            if slot < self.compacted_below {
                continue;
            }
            out.merge(self.on_chosen(slot, cmd));
        }
        out
    }

    /// Starts a leadership campaign: picks a ballot above `promised` led by
    /// this replica and sends `PREPARE` to all members.
    pub fn campaign(&mut self) -> PaxosOutput<C> {
        let ballot = self.promised.next_for(self.config.id);
        self.campaigning = Some(ballot);
        self.promises.clear();
        let outgoing = self
            .config
            .members
            .iter()
            .map(|m| (*m, PaxosMsg::Prepare { ballot }))
            .collect();
        PaxosOutput {
            outgoing,
            decided: Vec::new(),
        }
    }

    /// Proposes a command for the next free slot. Only meaningful at the
    /// leader; at a follower the command is dropped and an empty output
    /// returned (callers should forward to the leader instead).
    pub fn propose(&mut self, cmd: C) -> PaxosOutput<C> {
        let Some(ballot) = self.leading else {
            return PaxosOutput::default();
        };
        let slot = self.next_slot;
        self.next_slot += 1;
        self.in_flight.insert(slot, cmd.clone());
        let outgoing = self
            .config
            .members
            .iter()
            .map(|m| {
                (
                    *m,
                    PaxosMsg::Accept {
                        ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                )
            })
            .collect();
        PaxosOutput {
            outgoing,
            decided: Vec::new(),
        }
    }

    /// Handles a Paxos message from `from`.
    pub fn handle(&mut self, from: ProcessId, msg: PaxosMsg<C>) -> PaxosOutput<C> {
        match msg {
            PaxosMsg::Prepare { ballot } => self.on_prepare(from, ballot),
            PaxosMsg::Promise { ballot, accepted } => self.on_promise(from, ballot, accepted),
            PaxosMsg::Accept { ballot, slot, cmd } => self.on_accept(from, ballot, slot, cmd),
            PaxosMsg::Accepted { ballot, slot } => self.on_accepted(from, ballot, slot),
            PaxosMsg::Chosen { slot, cmd } => self.on_chosen(slot, cmd),
        }
    }

    fn on_prepare(&mut self, from: ProcessId, ballot: Ballot) -> PaxosOutput<C> {
        let mut out = PaxosOutput::default();
        if ballot <= self.promised {
            return out;
        }
        self.promised = ballot;
        // A higher ballot deposes us if we were leading a lower one.
        if self.leading.map(|b| b < ballot).unwrap_or(false) {
            self.leading = None;
        }
        out.outgoing.push((
            from,
            PaxosMsg::Promise {
                ballot,
                accepted: self.accepted.clone(),
            },
        ));
        out
    }

    fn on_promise(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        accepted: BTreeMap<Slot, (Ballot, C)>,
    ) -> PaxosOutput<C> {
        let mut out = PaxosOutput::default();
        if self.campaigning != Some(ballot) {
            return out;
        }
        self.promises.insert(from, accepted);
        if self.promises.len() < self.config.quorum() {
            return out;
        }
        // Quorum of promises: adopt, for every slot, the value accepted at the
        // highest ballot; re-propose them under our ballot.
        self.campaigning = None;
        self.leading = Some(ballot);
        let mut adopted: BTreeMap<Slot, (Ballot, C)> = BTreeMap::new();
        for acc in self.promises.values() {
            for (slot, (b, cmd)) in acc {
                match adopted.get(slot) {
                    Some((existing, _)) if existing >= b => {}
                    _ => {
                        adopted.insert(*slot, (*b, cmd.clone()));
                    }
                }
            }
        }
        let max_slot = adopted.keys().max().copied();
        if let Some(max_slot) = max_slot {
            self.next_slot = self.next_slot.max(max_slot + 1);
        }
        for (slot, (_, cmd)) in adopted {
            self.in_flight.insert(slot, cmd.clone());
            self.acks.remove(&slot);
            for m in &self.config.members {
                out.outgoing.push((
                    *m,
                    PaxosMsg::Accept {
                        ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                ));
            }
        }
        out
    }

    fn on_accept(&mut self, from: ProcessId, ballot: Ballot, slot: Slot, cmd: C) -> PaxosOutput<C> {
        let mut out = PaxosOutput::default();
        if ballot < self.promised {
            return out;
        }
        self.promised = ballot;
        if slot < self.compacted_below {
            // The slot was compacted away: it is decided and its effect is
            // captured in a checkpoint. Acknowledge so a retrying leader
            // makes progress, but store nothing.
            out.outgoing
                .push((from, PaxosMsg::Accepted { ballot, slot }));
            return out;
        }
        self.accepted.insert(slot, (ballot, cmd));
        out.outgoing
            .push((from, PaxosMsg::Accepted { ballot, slot }));
        out
    }

    /// Registers a 2b vote and returns the newly chosen `(slot, command)`, if
    /// the vote completed a quorum.
    fn note_accepted(&mut self, from: ProcessId, ballot: Ballot, slot: Slot) -> Option<(Slot, C)> {
        if self.leading != Some(ballot) {
            return None;
        }
        let ackers = self.acks.entry(slot).or_default();
        ackers.insert(from);
        if ackers.len() != self.config.quorum() {
            return None;
        }
        self.in_flight.get(&slot).cloned().map(|cmd| (slot, cmd))
    }

    fn on_accepted(&mut self, from: ProcessId, ballot: Ballot, slot: Slot) -> PaxosOutput<C> {
        let mut out = PaxosOutput::default();
        let Some((slot, cmd)) = self.note_accepted(from, ballot, slot) else {
            return out;
        };
        // Newly chosen: tell everyone (including ourselves, handled inline).
        let members = self.config.members.clone();
        let own_id = self.config.id;
        for m in members {
            if m == own_id {
                out.merge(self.on_chosen(slot, cmd.clone()));
            } else {
                out.outgoing.push((
                    m,
                    PaxosMsg::Chosen {
                        slot,
                        cmd: cmd.clone(),
                    },
                ));
            }
        }
        out
    }

    fn on_chosen(&mut self, slot: Slot, cmd: C) -> PaxosOutput<C> {
        let mut out = PaxosOutput::default();
        if slot < self.compacted_below {
            // Already compacted: decided long ago, nothing left to learn.
            return out;
        }
        self.chosen.entry(slot).or_insert(cmd);
        while let Some(cmd) = self.chosen.get(&self.next_to_decide) {
            out.decided.push((self.next_to_decide, cmd.clone()));
            self.next_to_decide += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members() -> Vec<ProcessId> {
        vec![ProcessId(0), ProcessId(1), ProcessId(2)]
    }

    fn trio() -> (
        PaxosReplica<String>,
        PaxosReplica<String>,
        PaxosReplica<String>,
    ) {
        (
            PaxosReplica::new(PaxosConfig::new(ProcessId(0), members())),
            PaxosReplica::new(PaxosConfig::new(ProcessId(1), members())),
            PaxosReplica::new(PaxosConfig::new(ProcessId(2), members())),
        )
    }

    /// Routes messages among the three replicas until quiescent; returns all
    /// decided commands per replica.
    fn run_to_quiescence(
        replicas: &mut [&mut PaxosReplica<String>],
        mut pending: Vec<(ProcessId, ProcessId, PaxosMsg<String>)>,
    ) -> Vec<Vec<(Slot, String)>> {
        let mut decided: Vec<Vec<(Slot, String)>> = vec![Vec::new(); replicas.len()];
        while let Some((from, to, msg)) = pending.pop() {
            let idx = to.0 as usize;
            let out = replicas[idx].handle(from, msg);
            for (slot, cmd) in out.decided {
                decided[idx].push((slot, cmd));
            }
            for (recipient, m) in out.outgoing {
                pending.push((to, recipient, m));
            }
        }
        decided
    }

    #[test]
    fn config_quorum_and_leader() {
        let cfg = PaxosConfig::new(ProcessId(1), members());
        assert_eq!(cfg.quorum(), 2);
        assert_eq!(cfg.initial_leader(), ProcessId(0));
    }

    #[test]
    #[should_panic(expected = "belong")]
    fn config_rejects_foreign_replica() {
        let _ = PaxosConfig::new(ProcessId(9), members());
    }

    #[test]
    fn initial_leader_can_propose_immediately() {
        let (mut p0, _, _) = trio();
        assert!(p0.is_leader());
        let out = p0.propose("a".to_string());
        assert_eq!(out.outgoing.len(), 3);
        assert!(out.decided.is_empty());
    }

    #[test]
    fn followers_cannot_propose() {
        let (_, mut p1, _) = trio();
        assert!(!p1.is_leader());
        let out = p1.propose("a".to_string());
        assert!(out.outgoing.is_empty());
    }

    #[test]
    fn command_is_decided_at_all_replicas_in_order() {
        let (mut p0, mut p1, mut p2) = trio();
        let mut pending = Vec::new();
        for cmd in ["a", "b", "c"] {
            for (to, msg) in p0.propose(cmd.to_string()).outgoing {
                pending.push((ProcessId(0), to, msg));
            }
        }
        let decided = run_to_quiescence(&mut [&mut p0, &mut p1, &mut p2], pending);
        for d in &decided {
            let cmds: Vec<&str> = d.iter().map(|(_, c)| c.as_str()).collect();
            assert_eq!(cmds, vec!["a", "b", "c"]);
            let slots: Vec<Slot> = d.iter().map(|(s, _)| *s).collect();
            assert_eq!(slots, vec![0, 1, 2]);
        }
        assert_eq!(p0.decided_len(), 3);
        assert_eq!(p1.chosen_in(1), Some(&"b".to_string()));
    }

    #[test]
    fn decisions_are_reported_once_and_contiguously() {
        let (mut p0, mut p1, mut p2) = trio();
        let out1 = p0.propose("a".to_string());
        let out2 = p0.propose("b".to_string());
        // Deliver slot 1's messages first: nothing should be decided until
        // slot 0 is also chosen.
        let mut pending = Vec::new();
        for (to, msg) in out2.outgoing {
            pending.push((ProcessId(0), to, msg));
        }
        let decided_early = run_to_quiescence(&mut [&mut p0, &mut p1, &mut p2], pending);
        assert!(decided_early.iter().all(|d| d.is_empty()));
        let mut pending = Vec::new();
        for (to, msg) in out1.outgoing {
            pending.push((ProcessId(0), to, msg));
        }
        let decided_late = run_to_quiescence(&mut [&mut p0, &mut p1, &mut p2], pending);
        // Now both slots are reported, in order.
        for d in decided_late {
            let cmds: Vec<&str> = d.iter().map(|(_, c)| c.as_str()).collect();
            assert_eq!(cmds, vec!["a", "b"]);
        }
    }

    #[test]
    fn stale_ballot_accept_is_rejected() {
        let (_, mut p1, _) = trio();
        // p1 promises ballot (2, p1) to itself via a campaign from p2.
        let out = p1.handle(
            ProcessId(2),
            PaxosMsg::Prepare {
                ballot: Ballot::new(5, ProcessId(2)),
            },
        );
        assert_eq!(out.outgoing.len(), 1);
        // An ACCEPT from the old leader's ballot is now rejected.
        let out = p1.handle(
            ProcessId(0),
            PaxosMsg::Accept {
                ballot: Ballot::new(1, ProcessId(0)),
                slot: 0,
                cmd: "x".to_string(),
            },
        );
        assert!(out.outgoing.is_empty());
    }

    #[test]
    fn campaign_recovers_accepted_values() {
        let (mut p0, mut p1, mut p2) = trio();
        // p0 proposes "a"; only p1 accepts it (p2 never hears the 2a).
        let out = p0.propose("a".to_string());
        let accept_for_p1 = out
            .outgoing
            .iter()
            .find(|(to, _)| *to == ProcessId(1))
            .cloned()
            .unwrap();
        p1.handle(ProcessId(0), accept_for_p1.1);
        // p1 campaigns; p1 + p2 form a quorum of promises.
        let campaign = p1.campaign();
        let mut promises: Vec<(ProcessId, PaxosMsg<String>)> = Vec::new();
        for (to, msg) in campaign.outgoing {
            let reply = match to {
                ProcessId(1) => p1.handle(ProcessId(1), msg),
                ProcessId(2) => p2.handle(ProcessId(1), msg),
                _ => PaxosOutput::default(), // p0 is "crashed"
            };
            promises.extend(reply.outgoing.into_iter().map(|(_, m)| (to, m)));
        }
        let mut out = PaxosOutput::default();
        for (sender, msg) in promises {
            // The promise carries the sender's previously accepted values.
            out.merge(p1.handle(sender, msg));
        }
        assert!(p1.is_leader());
        // The new leader re-proposes "a" for slot 0 under its own ballot.
        let reproposed = out
            .outgoing
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { slot: 0, cmd, .. } if cmd == "a"));
        assert!(
            reproposed,
            "accepted value must be re-proposed by the new leader"
        );
    }

    #[test]
    fn compaction_discards_the_prefix_and_keeps_deciding() {
        let (mut p0, mut p1, mut p2) = trio();
        let mut pending = Vec::new();
        for cmd in ["a", "b", "c", "d"] {
            for (to, msg) in p0.propose(cmd.to_string()).outgoing {
                pending.push((ProcessId(0), to, msg));
            }
        }
        run_to_quiescence(&mut [&mut p0, &mut p1, &mut p2], pending);
        assert_eq!(p0.decided_len(), 4);
        assert_eq!(p0.log_len(), 4);
        p0.compact_below(3);
        assert_eq!(p0.compacted_below(), 3);
        assert_eq!(p0.log_len(), 1, "only slot 3 remains resident");
        assert_eq!(p0.chosen_in(1), None);
        assert_eq!(p0.chosen_in(3), Some(&"d".to_string()));
        // A late Chosen for a compacted slot is ignored, not resurrected.
        let out = p0.handle(
            ProcessId(1),
            PaxosMsg::Chosen {
                slot: 0,
                cmd: "a".to_string(),
            },
        );
        assert!(out.decided.is_empty());
        assert_eq!(p0.log_len(), 1);
        // New proposals keep working after compaction.
        let mut pending = Vec::new();
        for (to, msg) in p0.propose("e".to_string()).outgoing {
            pending.push((ProcessId(0), to, msg));
        }
        let decided = run_to_quiescence(&mut [&mut p0, &mut p1, &mut p2], pending);
        assert!(decided[0]
            .iter()
            .any(|(slot, cmd)| *slot == 4 && cmd == "e"));
    }

    #[test]
    fn compaction_never_outruns_the_decision_frontier() {
        let (mut p0, _, _) = trio();
        p0.propose("a".to_string());
        // Nothing decided yet: compacting "below 10" must be clamped to 0.
        p0.compact_below(10);
        assert_eq!(p0.compacted_below(), 0);
    }

    #[test]
    fn install_snapshot_jumps_a_lagging_learner_forward() {
        let (_, mut p1, _) = trio();
        // p1 missed slots 0..3 which the leader has compacted; it receives a
        // catch-up: frontier 3 plus the resident suffix.
        let out = p1.install_snapshot(3, vec![(3, "d".to_string()), (4, "e".to_string())]);
        assert_eq!(
            out.decided,
            vec![(3, "d".to_string()), (4, "e".to_string())],
            "the suffix is decided contiguously after the jump"
        );
        assert_eq!(p1.decided_len(), 5);
        assert_eq!(p1.compacted_below(), 3);
        // Entries below the frontier in a later (stale) snapshot are ignored.
        let out = p1.install_snapshot(3, vec![(0, "a".to_string())]);
        assert!(out.decided.is_empty());
    }

    #[test]
    fn chosen_messages_bring_followers_up_to_date() {
        let (_, mut p1, _) = trio();
        let out = p1.handle(
            ProcessId(0),
            PaxosMsg::Chosen {
                slot: 0,
                cmd: "a".to_string(),
            },
        );
        assert_eq!(out.decided, vec![(0, "a".to_string())]);
        // Duplicate Chosen is harmless.
        let out = p1.handle(
            ProcessId(0),
            PaxosMsg::Chosen {
                slot: 0,
                cmd: "a".to_string(),
            },
        );
        assert!(out.decided.is_empty());
    }
}
