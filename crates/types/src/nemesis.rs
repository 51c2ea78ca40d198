//! Nemesis fault plans: seeded, deterministic descriptions of the faults a
//! runtime injects into a run.
//!
//! A [`NemesisPlan`] is pure data — which messages may be dropped, duplicated
//! or delayed, which network partitions open and heal when, which processes
//! crash (and possibly restart), and how much timers may jitter. The
//! deterministic simulator in `wbam-simnet` executes the plan using its own
//! seeded RNG, so a `(seed, plan)` pair reproduces the exact same schedule
//! byte for byte; the schedule explorer in `wbam-harness` derives whole plans
//! from a single seed and prints that seed as a replayable token when a run
//! violates an invariant.
//!
//! The paper's system model (§II) assumes reliable FIFO channels and
//! crash-stop failures. The nemesis deliberately steps outside it:
//!
//! * **Drops, duplicates and partitions** model *transient* loss. They leave
//!   safety untouched (a lost message is indistinguishable from a slow one)
//!   and the protocols' retry machinery recovers liveness once the fault
//!   window ([`NemesisPlan::chaos_end`]) closes.
//! * **Crash–restart** goes beyond crash-stop: a restarted process rejoins
//!   with its durable state (see `Event::Restart`).
//! * **Delays** ([`LinkFaults::reorder_per_mille`]) are executed only by the
//!   deployed engine's fault-injecting proxy, as a FIFO-preserving stall of
//!   the whole link; the simulator and the deterministic runtime keep every
//!   channel FIFO and ignore the knob.

use std::time::Duration;

use crate::ids::ProcessId;

/// Probabilistic per-message link faults, applied independently to every
/// protocol message sent between two *distinct* processes while the chaos
/// window is open. Probabilities are expressed in permille (0–1000) so plans
/// are exactly representable and hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    /// Probability (‰) that a message is silently dropped.
    pub drop_per_mille: u16,
    /// Probability (‰) that a message is delivered twice. The duplicate is
    /// enqueued with an independently sampled delay but still respects the
    /// channel's FIFO clamp, so it models a retransmit-style stutter rather
    /// than reordering.
    pub duplicate_per_mille: u16,
    /// Probability (‰) that the deployed engine's proxy stalls a link before
    /// forwarding a frame, by up to [`reorder_extra`](Self::reorder_extra).
    /// TCP keeps a connection FIFO, so every later frame of the link waits
    /// behind the stalled one; only frames on other links can overtake it.
    /// The simulator does not act on it.
    pub reorder_per_mille: u16,
    /// Longest stall of a delayed link.
    pub reorder_extra: Duration,
}

impl LinkFaults {
    /// Whether any probabilistic link fault is enabled.
    pub fn any(&self) -> bool {
        self.drop_per_mille > 0 || self.duplicate_per_mille > 0 || self.reorder_per_mille > 0
    }
}

/// A network partition separating two sets of processes for a time window.
///
/// While `start <= now < heal`, messages from a process in `side_a` to a
/// process in `side_b` are dropped; if [`symmetric`](Self::symmetric), the
/// reverse direction is dropped too (an asymmetric partition models one-way
/// link failures, e.g. a broken uplink). Processes on neither side are
/// unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// When the partition opens.
    pub start: Duration,
    /// When the partition heals (exclusive).
    pub heal: Duration,
    /// One side of the cut.
    pub side_a: Vec<ProcessId>,
    /// The other side of the cut.
    pub side_b: Vec<ProcessId>,
    /// Whether traffic is blocked in both directions.
    pub symmetric: bool,
}

impl PartitionSpec {
    /// Whether this partition blocks a message sent from `from` to `to` at
    /// time `at`.
    pub fn blocks(&self, at: Duration, from: ProcessId, to: ProcessId) -> bool {
        if at < self.start || at >= self.heal {
            return false;
        }
        let a_to_b = self.side_a.contains(&from) && self.side_b.contains(&to);
        let b_to_a = self.side_b.contains(&from) && self.side_a.contains(&to);
        a_to_b || (self.symmetric && b_to_a)
    }
}

/// A scheduled crash of one process, optionally followed by a restart.
///
/// A restarted process rejoins with the state it held at the crash (modelling
/// synchronously persisted durable state) and receives an `Event::Restart`.
/// Everything volatile is lost: messages that arrive during the downtime are
/// dropped, and timers armed before the crash never fire. A message still in
/// flight when the process comes back up *is* delivered — the network may
/// hand a delayed packet to the new incarnation, and the protocols must (and
/// do) treat it like any other duplicate or stale message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// When the process crashes.
    pub at: Duration,
    /// The crashing process.
    pub process: ProcessId,
    /// When the process restarts; `None` models a permanent (crash-stop)
    /// failure.
    pub restart_at: Option<Duration>,
}

/// A complete, deterministic fault schedule for one simulated run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NemesisPlan {
    /// Probabilistic per-message link faults.
    pub link: LinkFaults,
    /// Scheduled network partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Scheduled crashes (and restarts).
    pub crashes: Vec<CrashSpec>,
    /// Maximum random extra delay added to every timer while the chaos window
    /// is open. Zero disables timer jitter.
    pub timer_jitter: Duration,
    /// End of the chaos window: link faults and timer jitter only apply to
    /// messages sent (timers armed) strictly before this instant. `None`
    /// keeps them active for the whole run. Partitions and crashes carry
    /// their own schedules and are not affected.
    pub chaos_end: Option<Duration>,
}

impl NemesisPlan {
    /// A plan that injects no faults at all.
    pub fn quiet() -> Self {
        NemesisPlan::default()
    }

    /// Whether the plan injects no faults at all.
    pub fn is_quiet(&self) -> bool {
        !self.link.any()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.timer_jitter.is_zero()
    }

    /// Whether probabilistic link faults / timer jitter apply at `at`.
    pub fn chaos_active(&self, at: Duration) -> bool {
        match self.chaos_end {
            Some(end) => at < end,
            None => true,
        }
    }

    /// Whether some active partition blocks a message from `from` to `to`
    /// sent at `at`.
    pub fn partition_blocks(&self, at: Duration, from: ProcessId, to: ProcessId) -> bool {
        self.partitions.iter().any(|p| p.blocks(at, from, to))
    }

    /// Processes that crash at any point in the plan (restarted or not).
    /// The linearizability oracle uses this to excuse delivery gaps.
    pub fn faulty_processes(&self) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self.crashes.iter().map(|c| c.process).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the plan can lose messages (drops or partitions), in which
    /// case per-replica delivery gaps are explainable by the environment.
    pub fn lossy(&self) -> bool {
        self.link.drop_per_mille > 0 || !self.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn quiet_plan_reports_quiet() {
        assert!(NemesisPlan::quiet().is_quiet());
        let mut plan = NemesisPlan::quiet();
        plan.link.drop_per_mille = 1;
        assert!(!plan.is_quiet());
        assert!(plan.lossy());
    }

    #[test]
    fn partition_blocks_within_window_and_respects_symmetry() {
        let p = PartitionSpec {
            start: ms(10),
            heal: ms(20),
            side_a: vec![ProcessId(0), ProcessId(1)],
            side_b: vec![ProcessId(2)],
            symmetric: false,
        };
        assert!(p.blocks(ms(10), ProcessId(0), ProcessId(2)));
        assert!(p.blocks(ms(19), ProcessId(1), ProcessId(2)));
        // Asymmetric: the reverse direction stays open.
        assert!(!p.blocks(ms(15), ProcessId(2), ProcessId(0)));
        // Outside the window nothing is blocked.
        assert!(!p.blocks(ms(9), ProcessId(0), ProcessId(2)));
        assert!(!p.blocks(ms(20), ProcessId(0), ProcessId(2)));
        // Unlisted processes are unaffected.
        assert!(!p.blocks(ms(15), ProcessId(0), ProcessId(9)));

        let sym = PartitionSpec {
            symmetric: true,
            ..p.clone()
        };
        assert!(sym.blocks(ms(15), ProcessId(2), ProcessId(0)));
    }

    #[test]
    fn chaos_window_gates_link_faults() {
        let mut plan = NemesisPlan::quiet();
        plan.chaos_end = Some(ms(100));
        assert!(plan.chaos_active(ms(99)));
        assert!(!plan.chaos_active(ms(100)));
        plan.chaos_end = None;
        assert!(plan.chaos_active(ms(1_000_000)));
    }

    #[test]
    fn faulty_processes_deduplicates() {
        let plan = NemesisPlan {
            crashes: vec![
                CrashSpec {
                    at: ms(1),
                    process: ProcessId(3),
                    restart_at: Some(ms(5)),
                },
                CrashSpec {
                    at: ms(9),
                    process: ProcessId(3),
                    restart_at: None,
                },
                CrashSpec {
                    at: ms(2),
                    process: ProcessId(1),
                    restart_at: None,
                },
            ],
            ..NemesisPlan::quiet()
        };
        assert_eq!(plan.faulty_processes(), vec![ProcessId(1), ProcessId(3)]);
        assert!(!plan.lossy(), "crashes alone do not lose sent messages");
    }
}
