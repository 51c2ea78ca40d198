//! Byte pins for the paper reproducers: each binary runs at its default
//! scale (`WBAM_SCALE` removed from its environment) and its stdout must
//! equal the golden file `tests/regressions/<binary>.stdout` at the
//! workspace root. The simulator is seeded and single-threaded, so any
//! difference is a behaviour change — fix the code, never re-pin.
//!
//! `fig8_wan` takes a few seconds in release and longer in debug, so it is
//! `#[ignore]`d here and runs in CI next to the sweep fingerprints
//! (`cargo test --release -p wbam-bench --test reproducers -- --ignored`).
//! `fig7_lan` is not pinned: it takes about half a minute in release.

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(name: &str, exe: &str) {
    let out = Command::new(exe)
        .env_remove("WBAM_SCALE")
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/regressions")
        .join(format!("{name}.stdout"));
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", golden.display()));
    let got = String::from_utf8(out.stdout).expect("reproducer output is UTF-8");
    assert_eq!(
        got,
        want,
        "{name}: stdout differs from {}",
        golden.display()
    );
}

#[test]
fn table1_latency_matches_its_golden_output() {
    assert_matches_golden("table1_latency", env!("CARGO_BIN_EXE_table1_latency"));
}

#[test]
fn fig2_convoy_matches_its_golden_output() {
    assert_matches_golden("fig2_convoy", env!("CARGO_BIN_EXE_fig2_convoy"));
}

#[test]
fn fig5_flow_matches_its_golden_output() {
    assert_matches_golden("fig5_flow", env!("CARGO_BIN_EXE_fig5_flow"));
}

#[test]
fn ablation_genuine_scaling_matches_its_golden_output() {
    assert_matches_golden(
        "ablation_genuine_scaling",
        env!("CARGO_BIN_EXE_ablation_genuine_scaling"),
    );
}

#[test]
fn ablation_speculative_clock_matches_its_golden_output() {
    assert_matches_golden(
        "ablation_speculative_clock",
        env!("CARGO_BIN_EXE_ablation_speculative_clock"),
    );
}

#[test]
#[ignore = "a few seconds in release; CI runs it with the sweep fingerprints"]
fn fig8_wan_matches_its_golden_output() {
    assert_matches_golden("fig8_wan", env!("CARGO_BIN_EXE_fig8_wan"));
}
