//! The correctness check every run ends with: the replicas' `--deliveries`
//! logs are the system's output and the ground truth for atomic multicast's
//! ordering guarantees.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use wbam_harness::DeliveryLine;
use wbam_types::wire::from_json;
use wbam_types::MsgId;

/// One delivery as a replica logged it: the message and its global
/// timestamp `(time, group)`.
pub type Entry = (MsgId, (u64, u32));

/// The delivery log of one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaLog {
    /// The replica's process id.
    pub process: u32,
    /// The group it belongs to.
    pub group: u32,
    /// Whether the process was SIGKILLed mid-run: its log then only has to be
    /// a prefix of its group's, not equal to it.
    pub killed: bool,
    /// Deliveries in the order they were logged.
    pub entries: Vec<Entry>,
}

/// A multicast the client saw acknowledged, with its destination groups.
pub type Acked = (MsgId, Vec<u32>);

/// Reads a `wbamd --deliveries` JSONL file. A SIGKILLed writer may leave a
/// torn last line; `tolerate_torn_tail` drops it instead of failing.
pub fn read_log(path: &Path, tolerate_torn_tail: bool) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().collect();
    let mut entries = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match from_json::<DeliveryLine>(line) {
            Ok(d) => entries.push((d.msg_id(), (d.gts_time, d.gts_group))),
            Err(_) if tolerate_torn_tail && i + 1 == lines.len() => {}
            Err(e) => return Err(format!("{}:{}: {e}", path.display(), i + 1)),
        }
    }
    Ok(entries)
}

/// What [`check`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Every violation, one line each (missing acknowledged messages are
    /// listed up to five, then summarised).
    pub violations: Vec<String>,
    /// (acknowledged message, destination group) pairs missing from the
    /// group's log: a loss the client was told had not happened.
    pub lost_acked: usize,
}

/// Checks the logs of one deployment against the client's view:
///
/// 1. every replica's log is duplicate-free and in increasing `global_ts`
///    order;
/// 2. all replicas of a group have identical logs (a killed replica's log is
///    a prefix of them);
/// 3. the projections of any two groups' logs onto the messages both
///    delivered agree in order and `global_ts`;
/// 4. every client-acked message is in the log of every destination group.
///
/// An empty list of violations is a pass.
pub fn check(logs: &[ReplicaLog], acked: &[Acked]) -> Verdict {
    let mut violations = Vec::new();

    for log in logs {
        let mut seen = HashSet::with_capacity(log.entries.len());
        for (i, (msg, _)) in log.entries.iter().enumerate() {
            if !seen.insert(*msg) {
                violations.push(format!(
                    "p{}: {msg} delivered twice (entry {i})",
                    log.process
                ));
                break;
            }
        }
        if let Some(i) = log.entries.windows(2).position(|w| w[0].1 >= w[1].1) {
            violations.push(format!(
                "p{}: global_ts not increasing at entry {}: {:?} then {:?}",
                log.process,
                i + 1,
                log.entries[i],
                log.entries[i + 1]
            ));
        }
    }

    // The reference log of a group: its longest surviving replica's.
    let mut reference: HashMap<u32, &ReplicaLog> = HashMap::new();
    for log in logs.iter().filter(|l| !l.killed) {
        let best = reference.entry(log.group).or_insert(log);
        if log.entries.len() > best.entries.len() {
            *best = log;
        }
    }
    for log in logs {
        let Some(best) = reference.get(&log.group) else {
            violations.push(format!("g{}: no surviving replica", log.group));
            continue;
        };
        let agrees = if log.killed {
            best.entries.starts_with(&log.entries)
        } else {
            best.entries == log.entries
        };
        if !agrees {
            let at = log
                .entries
                .iter()
                .zip(&best.entries)
                .position(|(a, b)| a != b)
                .unwrap_or(log.entries.len().min(best.entries.len()));
            violations.push(format!(
                "g{}: logs of p{} ({} entries) and p{} ({} entries) differ at entry {at}",
                log.group,
                log.process,
                log.entries.len(),
                best.process,
                best.entries.len()
            ));
        }
    }

    let mut groups: Vec<&&ReplicaLog> = reference.values().collect();
    groups.sort_by_key(|l| l.group);
    for (i, a) in groups.iter().enumerate() {
        for b in &groups[i + 1..] {
            let in_b: HashMap<MsgId, (u64, u32)> = b.entries.iter().copied().collect();
            let in_a: HashSet<MsgId> = a.entries.iter().map(|e| e.0).collect();
            let proj_a = a.entries.iter().filter(|e| in_b.contains_key(&e.0));
            let proj_b = b.entries.iter().filter(|e| in_a.contains(&e.0));
            if let Some((x, y)) = proj_a.zip(proj_b).find(|(x, y)| x != y) {
                violations.push(format!(
                    "g{} and g{} disagree on their common messages: {x:?} vs {y:?}",
                    a.group, b.group
                ));
            }
        }
    }

    let delivered: HashMap<u32, HashSet<MsgId>> = reference
        .iter()
        .map(|(g, log)| (*g, log.entries.iter().map(|e| e.0).collect()))
        .collect();
    let mut lost_acked = 0usize;
    for (msg, dest) in acked {
        for g in dest {
            if !delivered.get(g).is_some_and(|set| set.contains(msg)) {
                lost_acked += 1;
                if lost_acked <= 5 {
                    violations.push(format!("acked {msg} is not in the log of g{g}"));
                }
            }
        }
    }
    if lost_acked > 5 {
        violations.push(format!(
            "... and {} more acked messages missing",
            lost_acked - 5
        ));
    }
    Verdict {
        violations,
        lost_acked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::ProcessId;

    fn m(seq: u64) -> MsgId {
        MsgId::new(ProcessId(6), seq)
    }

    /// Two groups of three. g0 delivers 0, 1, 3; g1 delivers 1, 2, 3;
    /// messages 1 and 3 went to both.
    fn good() -> (Vec<ReplicaLog>, Vec<Acked>) {
        let g0 = vec![(m(0), (1, 0)), (m(1), (2, 1)), (m(3), (5, 0))];
        let g1 = vec![(m(1), (2, 1)), (m(2), (3, 1)), (m(3), (5, 0))];
        let mut logs = Vec::new();
        for p in 0..6u32 {
            logs.push(ReplicaLog {
                process: p,
                group: p / 3,
                killed: false,
                entries: if p < 3 { g0.clone() } else { g1.clone() },
            });
        }
        let acked = vec![
            (m(0), vec![0]),
            (m(1), vec![0, 1]),
            (m(2), vec![1]),
            (m(3), vec![0, 1]),
        ];
        (logs, acked)
    }

    #[test]
    fn a_good_log_passes() {
        let (logs, acked) = good();
        assert_eq!(check(&logs, &acked), Verdict::default());
    }

    #[test]
    fn a_swapped_pair_in_one_replica_is_caught() {
        let (mut logs, acked) = good();
        logs[1].entries.swap(0, 1);
        let violations = check(&logs, &acked).violations;
        assert!(
            violations.iter().any(|v| v.contains("differ at entry 0")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("not increasing")),
            "{violations:?}"
        );
    }

    #[test]
    fn groups_disagreeing_on_common_messages_is_caught() {
        let (mut logs, acked) = good();
        // All of g1 delivers the two common messages in the other order (and
        // with consistent-looking timestamps).
        for log in logs.iter_mut().filter(|l| l.group == 1) {
            log.entries = vec![(m(3), (1, 0)), (m(2), (3, 1)), (m(1), (6, 1))];
        }
        let violations = check(&logs, &acked).violations;
        assert!(
            violations.iter().any(|v| v.contains("g0 and g1 disagree")),
            "{violations:?}"
        );
    }

    #[test]
    fn a_missing_ack_is_caught() {
        let (logs, mut acked) = good();
        acked.push((m(9), vec![1]));
        let violations = check(&logs, &acked).violations;
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].ends_with("is not in the log of g1"),
            "{violations:?}"
        );
        // An acked cross-group message must be in both logs.
        let (logs, mut acked) = good();
        acked[0].1 = vec![0, 1];
        assert!(check(&logs, &acked)
            .violations
            .iter()
            .any(|v| v.contains("not in the log of g1")));
    }

    #[test]
    fn duplicates_are_caught() {
        let (mut logs, acked) = good();
        let dup = logs[4].entries[0];
        logs[4].entries.push(dup);
        assert!(check(&logs, &acked)
            .violations
            .iter()
            .any(|v| v.contains("delivered twice")));
    }

    #[test]
    fn a_killed_replica_only_needs_a_prefix() {
        let (mut logs, acked) = good();
        logs[0].killed = true;
        logs[0].entries.truncate(1);
        assert_eq!(check(&logs, &acked), Verdict::default());
        // ...but not a divergent one.
        logs[0].entries[0] = (m(1), (2, 1));
        assert!(check(&logs, &acked)
            .violations
            .iter()
            .any(|v| v.contains("differ at entry 0")));
    }
}
