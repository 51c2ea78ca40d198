//! Bounded-memory soak benchmark: resident record counts and restart-recovery
//! cost with compaction on versus off, for every protocol, appended as
//! machine-readable JSON-lines records to `BENCH_memory.json`.
//!
//! The benchmark drives a paced multicast load through a 3×3 cluster twice
//! per protocol — once with compaction disabled (the paper's unbounded
//! behaviour: every record since genesis stays resident) and once with a
//! watermark exchange every 50 deliveries and a 100-record lag window — and
//! records:
//!
//! * `resident_records_max` / `resident_records_final`: the peak / final
//!   record count over all replicas (the quantity compaction bounds),
//! * `record_slots_max`: the peak record-store slots allocated at one
//!   replica — its footprint beyond the records, one slot per sequence
//!   number its windows span, resident or not,
//! * `restart_recovery_wall_ms`: the *host* wall-clock cost of draining a
//!   follower crash/restart scheduled after the load — the recovery
//!   handshake ships and merges the resident history, so this is the
//!   O(history) → O(suffix) restart-work measurement, and
//! * `resident_bytes_per_record`: what one resident record costs in memory —
//!   the growth of this process's `VmRSS` over the load, divided by the
//!   records resident across all replicas at its end. The simulator's own
//!   per-message bookkeeping (delivery logs, metrics) is in the numerator, so
//!   read it as a difference between two commits, not as an absolute. Only
//!   the process's first run (WbCast, compaction off) reports it: later runs
//!   reuse memory the earlier ones freed, and a compacted run holds too few
//!   records for the quotient to mean anything.
//!
//! Usage:
//!
//! ```text
//! memory_soak            # full profile (30k messages per run)
//! memory_soak --smoke    # CI profile (4k messages) + regression gate:
//!                        # exits non-zero if the compacted run's resident
//!                        # record count is not bounded (or never pruned)
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use wbam_bench::{header, provenance};
use wbam_harness::{ClusterSpec, Protocol, ProtocolSim};
use wbam_simnet::LatencyModel;
use wbam_types::GroupId;

const BENCH_FILE: &str = "BENCH_memory.json";
const INTERVAL: u64 = 50;
const LAG: usize = 100;

/// One machine-readable record, one JSON object per line of
/// `BENCH_memory.json` (append-only, like `BENCH_throughput.json`).
#[derive(Debug, Serialize, Deserialize)]
struct MemoryRecord {
    bench: String,
    protocol: String,
    messages: usize,
    compaction_interval: u64,
    compaction_lag: usize,
    resident_records_max: usize,
    resident_records_final: usize,
    pruned_total: u64,
    restart_recovery_wall_ms: f64,
    /// Absent in rows older than the field and in all but a process's first
    /// run (see the module docs).
    resident_bytes_per_record: Option<f64>,
    /// Absent in rows older than the field.
    record_slots_max: Option<usize>,
    /// Short git revision of the measured tree, if it was known; absent in
    /// rows older than the field.
    git_rev: Option<String>,
    /// CPUs the measuring process could use; absent in rows older than the
    /// field.
    host_cores: Option<usize>,
}

struct RunOutcome {
    resident_max: usize,
    slots_max: usize,
    resident_final: usize,
    pruned: u64,
    restart_wall: Duration,
    /// `VmRSS` growth over the load per record resident at its end.
    bytes_per_record: Option<f64>,
}

fn spec(compaction: bool) -> ClusterSpec {
    let mut spec = ClusterSpec {
        num_groups: 3,
        group_size: 3,
        num_clients: 2,
        num_sites: 1,
        latency: LatencyModel::constant(Duration::from_micros(500)),
        service_time: Duration::ZERO,
        seed: 77,
        nemesis: wbam_types::NemesisPlan::quiet(),
        record_trace: false,
        auto_election: false,
        compaction_interval: 0,
        compaction_lag: 0,
    };
    if compaction {
        spec = spec.with_compaction(INTERVAL, LAG);
    }
    spec
}

/// Every replica's resident record count.
fn resident(sim: &ProtocolSim) -> impl Iterator<Item = usize> + '_ {
    sim.cluster()
        .groups()
        .iter()
        .flat_map(|g| g.members())
        .filter_map(|m| sim.live_records(*m))
}

fn max_resident(sim: &ProtocolSim) -> usize {
    resident(sim).max().unwrap_or(0)
}

/// The most record-store slots any replica has allocated.
fn max_slots(sim: &ProtocolSim) -> usize {
    let replicas = sim.cluster().groups().iter().flat_map(|g| g.members());
    replicas
        .filter_map(|m| sim.record_slots(*m))
        .max()
        .unwrap_or(0)
}

/// This process's resident set size in bytes (`VmRSS` in
/// `/proc/self/status`); `None` where there is no such file.
fn vm_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?
        .trim()
        .strip_suffix("kB")?;
    Some(kb.trim().parse::<u64>().ok()? * 1024)
}

/// Drives `messages` paced multicasts (70% single-group, 30% two-group),
/// sampling the peak resident record count, then crashes and restarts a
/// group-0 follower and measures the wall-clock cost of draining recovery.
fn run(protocol: Protocol, messages: usize, compaction: bool) -> RunOutcome {
    let rss_before = vm_rss_bytes();
    let mut sim = ProtocolSim::build(protocol, &spec(compaction));
    let pace = Duration::from_micros(250);
    for i in 0..messages {
        let dest: Vec<GroupId> = if i % 10 < 7 {
            vec![GroupId((i % 3) as u32)]
        } else {
            vec![GroupId((i % 3) as u32), GroupId(((i + 1) % 3) as u32)]
        };
        sim.submit(pace * (i as u32 / 2), i % 2, &dest, 20);
    }
    // Sample the resident peak every ~4k submissions' worth of time.
    let total = pace * (messages as u32 / 2);
    let (mut resident_max, mut slots_max) = (0usize, 0usize);
    let step = total / 8 + Duration::from_millis(1);
    let mut at = step;
    while at < total {
        sim.run_until_quiescent(at);
        resident_max = resident_max.max(max_resident(&sim));
        slots_max = slots_max.max(max_slots(&sim));
        at += step;
    }
    sim.run_until_quiescent(total + Duration::from_secs(5));
    resident_max = resident_max.max(max_resident(&sim));
    slots_max = slots_max.max(max_slots(&sim));
    let bytes_per_record = match (rss_before, vm_rss_bytes(), resident(&sim).sum::<usize>()) {
        (Some(before), Some(after), records) if records > 0 => {
            Some(after.saturating_sub(before) as f64 / records as f64)
        }
        _ => None,
    };

    // Crash + restart a follower of group 0 after the load; the wall-clock
    // cost of the drain is dominated by the recovery handshake shipping and
    // merging the resident history (checkpoint + suffix when compacted).
    let victim = sim.cluster().group(GroupId(0)).unwrap().members()[1];
    let down = total + Duration::from_secs(6);
    let up = total + Duration::from_secs(7);
    sim.crash(down, victim);
    sim.restart(up, victim);
    let start = Instant::now();
    sim.run_until_quiescent(Duration::from_secs(3_600));
    let restart_wall = start.elapsed();

    let metrics = sim.metrics();
    RunOutcome {
        resident_max,
        slots_max,
        resident_final: max_resident(&sim),
        pruned: metrics.gauge("pruned_total").unwrap_or(0.0) as u64,
        restart_wall,
        bytes_per_record,
    }
}

fn append_record(record: &MemoryRecord) {
    use std::io::Write;
    let line = match serde_json::to_string(record) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("failed to encode record: {e}");
            return;
        }
    };
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(BENCH_FILE)
    {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{line}") {
                eprintln!("failed to write {BENCH_FILE}: {e}");
            }
        }
        Err(e) => eprintln!("failed to open {BENCH_FILE}: {e}"),
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let messages = if smoke { 4_000 } else { 30_000 };
    header(&format!(
        "memory_soak — resident records & restart cost, {messages} messages \
         (interval {INTERVAL}, lag {LAG})"
    ));
    println!(
        "{:<10} {:>11} {:>13} {:>13} {:>11} {:>11} {:>14}",
        "protocol",
        "compaction",
        "resident max",
        "resident end",
        "slots max",
        "pruned",
        "restart (ms)"
    );
    let mut gate_ok = true;
    // Generous smoke bound: the lag window plus a few STABLE intervals of
    // not-yet-stable deliveries plus the in-flight window.
    let bound = LAG + 8 * INTERVAL as usize + 64;
    let mut first_run = true;
    // Every row says which commit and host produced it.
    let (git_rev, host_cores) = provenance();
    for protocol in Protocol::evaluated() {
        for compaction in [false, true] {
            let outcome = run(protocol, messages, compaction);
            // The first run is WbCast with compaction off.
            let resident_bytes_per_record = outcome.bytes_per_record.filter(|_| first_run);
            first_run = false;
            println!(
                "{:<10} {:>11} {:>13} {:>13} {:>11} {:>11} {:>14.2}",
                protocol.label(),
                if compaction { "on" } else { "off" },
                outcome.resident_max,
                outcome.resident_final,
                outcome.slots_max,
                outcome.pruned,
                outcome.restart_wall.as_secs_f64() * 1e3,
            );
            if let Some(bytes) = resident_bytes_per_record {
                println!("{:<10} resident bytes per record: {bytes:.0}", "");
            }
            append_record(&MemoryRecord {
                bench: "memory_soak".to_string(),
                protocol: protocol.label().to_string(),
                messages,
                compaction_interval: if compaction { INTERVAL } else { 0 },
                compaction_lag: if compaction { LAG } else { 0 },
                resident_records_max: outcome.resident_max,
                resident_records_final: outcome.resident_final,
                pruned_total: outcome.pruned,
                restart_recovery_wall_ms: outcome.restart_wall.as_secs_f64() * 1e3,
                resident_bytes_per_record,
                record_slots_max: Some(outcome.slots_max),
                git_rev: git_rev.clone(),
                host_cores,
            });
            if compaction && (outcome.resident_max > bound || outcome.pruned == 0) {
                eprintln!(
                    "REGRESSION: {} compacted run resident max {} (bound {}), pruned {}",
                    protocol.label(),
                    outcome.resident_max,
                    bound,
                    outcome.pruned
                );
                gate_ok = false;
            }
        }
    }
    println!("records appended to {BENCH_FILE}");
    if gate_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_older_than_resident_bytes_per_record_still_parse() {
        let old = r#"{"bench":"memory_soak","protocol":"WbCast","messages":30000,"compaction_interval":0,"compaction_lag":0,"resident_records_max":13000,"resident_records_final":13000,"pruned_total":0,"restart_recovery_wall_ms":746.30332}"#;
        let row: MemoryRecord = serde_json::from_str(old).expect("old row parses");
        assert_eq!(row.resident_records_max, 13000);
        assert_eq!(row.resident_bytes_per_record, None);
        let new = old.replace('}', r#","resident_bytes_per_record":812.5}"#);
        let row: MemoryRecord = serde_json::from_str(&new).expect("new row parses");
        assert_eq!(row.resident_bytes_per_record, Some(812.5));
        assert_eq!(row.record_slots_max, None);
        let newer = new.replace('}', r#","record_slots_max":960}"#);
        let row: MemoryRecord = serde_json::from_str(&newer).expect("newer row parses");
        assert_eq!(row.record_slots_max, Some(960));
        assert_eq!((row.git_rev, row.host_cores), (None, None));
        let newest = newer.replace('}', r#","git_rev":"a77e133","host_cores":2}"#);
        let row: MemoryRecord = serde_json::from_str(&newest).expect("newest row parses");
        assert_eq!(row.git_rev.as_deref(), Some("a77e133"));
        assert_eq!(row.host_cores, Some(2));
    }
}
