//! Property test for the key-value store linearizability oracle: on
//! fault-free runs (the generated schedule with its nemesis plan replaced by
//! a quiet one) every protocol must satisfy the Figure 6 invariants, the
//! oracle, and termination — i.e. the oracle accepts all fault-free runs.
//!
//! Known-violating and known-linearizable *histories* are unit-tested next to
//! the oracle itself in `wbam_kvstore::history`; this test covers the other
//! direction (no false positives on healthy end-to-end runs).

use proptest::prelude::*;
use wbam_harness::explorer::{generate_schedule, run_generated};
use wbam_harness::{Protocol, Token, TokenVersion};
use wbam_types::NemesisPlan;

fn run_fault_free(protocol: Protocol, seed: u64) {
    // V2 derivation: fault-free runs must stay clean with the seed-derived
    // compaction cadence active.
    let token = Token {
        version: TokenVersion::V2,
        protocol,
        seed,
    };
    let mut schedule = generate_schedule(&token);
    // Strip the faults but keep the randomized topology and workload.
    schedule.spec.nemesis = NemesisPlan::quiet();
    let report = run_generated(&token, &schedule);
    assert!(
        report.violation.is_none(),
        "fault-free {token} violated: {:?}",
        report.violation
    );
    assert_eq!(
        report.completed, report.ops,
        "fault-free {token} left operations incomplete"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn oracle_accepts_all_fault_free_runs(seed in 0u64..100_000) {
        for protocol in Protocol::evaluated() {
            run_fault_free(protocol, seed);
        }
    }
}
