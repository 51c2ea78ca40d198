//! Pins whole explorer sweeps, not just single tokens: for each base seed
//! the digests of the first 1,000 `sim` and `rt` schedules are folded into
//! one fingerprint and compared with `tests/regressions/sweep.fingerprints`.
//! Every run is folded, whether it passes or fails, so a refactor that must
//! preserve behaviour byte for byte can be checked over 6,000 schedules.
//!
//! It takes a few seconds in release and much longer in debug, so it is
//! `#[ignore]`d; run it with
//!
//! ```text
//! cargo test --release --test sweep_fingerprints -- --ignored
//! ```

use wbam_harness::{run_token, schedule_token, Engine};

/// Schedules folded per engine and base seed.
const SCHEDULES: usize = 1_000;

/// FNV-1a over the little-endian bytes of every run digest, in index order.
fn fingerprint(engine: Engine, seed: u64) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..SCHEDULES {
        let digest = run_token(&schedule_token(engine, seed, i)).digest;
        for byte in digest.to_le_bytes() {
            acc = (acc ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// The pinned `(engine, seed, fingerprint)` lines.
fn pinned() -> Vec<(Engine, u64, u64)> {
    let path = format!(
        "{}/tests/regressions/sweep.fingerprints",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let [engine, seed, fp] = fields[..] else {
                panic!("`{l}`: expected `<engine> <seed> <fingerprint-hex>`");
            };
            let engine = match engine {
                "sim" => Engine::Sim,
                "rt" => Engine::Rt,
                other => panic!("`{l}`: unknown engine {other}"),
            };
            let seed = seed.parse().expect("decimal seed");
            let fp = u64::from_str_radix(fp, 16).expect("hex fingerprint");
            (engine, seed, fp)
        })
        .collect()
}

#[test]
#[ignore = "6,000 schedules; run in release"]
fn sweeps_keep_their_fingerprints() {
    let pinned = pinned();
    assert_eq!(pinned.len(), 6, "sweep.fingerprints lost lines");
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|&(engine, seed, want)| {
            let got = fingerprint(engine, seed);
            (got != want).then(|| format!("{engine} seed {seed}: {got:016x}, pinned {want:016x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "sweep behaviour changed:\n{}",
        moved.join("\n")
    );
}
