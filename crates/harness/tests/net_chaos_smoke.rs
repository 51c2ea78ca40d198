//! Bounded seeded chaos smoke: one full deployed run of an `n1` token — a live
//! 2-group × 3-replica `wbamd` cluster behind the nemesis proxy, with link
//! drops, a partition/heal, a SIGKILL/redeploy and a small workload — must
//! come out clean: Figure 6 agreement and the linearizability oracle over
//! the drained delivery logs, graceful SIGTERM stop of every replica, and a
//! plan digest that replays byte-for-byte. The CI `net-chaos` job runs wider
//! sweeps; this keeps the driver itself inside tier-1.

use std::path::PathBuf;

use wbam_harness::{run_plan, ExploreConfig, Plan, Token};
use wbam_types::wire::WireCodec;

#[test]
fn seeded_chaos_run_passes_all_checks_and_replays_its_plan() {
    let token = Token::parse("WBAM_NET_SEED=n1:WbCast:000000000000002a").expect("token");
    let config = ExploreConfig {
        messages: Some(10),
        wbamd: Some(PathBuf::from(env!("CARGO_BIN_EXE_wbamd"))),
        ..ExploreConfig::default()
    };
    let plan = Plan::generate(&token, config.messages);
    let report = run_plan(&token, &plan, &config, WireCodec::Binary);
    assert_eq!(
        report.violation, None,
        "chaos run failed (logs kept in {:?}): {:?}",
        report.log_dir, report.violation
    );
    assert_eq!(report.completed, report.ops, "not every op completed");
    assert!(report.deliveries > 0, "no deliveries drained");
    assert!(report.dropped > 0, "the plan's link drops never fired");

    // Replayability: the derived plan is a pure function of the token.
    let Plan::Net(replayed) = Plan::generate(&token, config.messages) else {
        panic!("an n1 token derives a deployed plan");
    };
    assert_eq!(
        replayed.digest(),
        report.digest,
        "plan derivation is not deterministic"
    );
}
