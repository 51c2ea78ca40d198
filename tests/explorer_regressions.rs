//! Replays the explorer regression corpus (`tests/regressions/corpus.tokens`)
//! and checks the explorer's own determinism contract.
//!
//! Every token in the corpus once reproduced a real bug (see the comments in
//! the corpus file); replaying them on every test run keeps those bugs fixed.
//! Every replay also matches its digest pinned in
//! `tests/regressions/digests.golden`, so a change to what a token derives
//! or how a schedule runs cannot go unnoticed.

#[path = "common/pinned.rs"]
mod pinned;

use pinned::{corpus, golden, replay_pinned};
use wbam_harness::{run_token, Engine, Plan};

/// Replays every pinned simulator token — the whole corpus plus the first
/// sweep tokens of base seed 42 — and requires each to run clean and to
/// reproduce its pinned digest.
#[test]
fn regression_corpus_replays_clean() {
    replay_pinned(Engine::Sim, "corpus.tokens", 16);
}

/// The deployed sweep's plans are a pure function of their tokens: each
/// pinned `n1:` plan digest is reproduced.
#[test]
fn pinned_net_plans_keep_their_digests() {
    let pinned = golden(Engine::Net);
    assert_eq!(pinned.len(), 6);
    for (token, digest) in pinned {
        let Plan::Net(plan) = Plan::generate(&token, Some(24)) else {
            panic!("{token} derives a deployed plan");
        };
        assert_eq!(plan.digest(), digest, "{token}: plan digest moved");
    }
}

/// The acceptance contract of the seed tokens: re-running a token reproduces
/// the identical schedule byte for byte (equal digests over every delivery
/// record of the run).
#[test]
fn corpus_tokens_replay_byte_for_byte() {
    // One token per protocol is enough to pin the determinism contract; the
    // clean-replay test above already runs every schedule once.
    let mut seen = std::collections::BTreeSet::new();
    for token in corpus("corpus.tokens", Engine::Sim) {
        if !seen.insert(token.protocol.label()) {
            continue;
        }
        let first = run_token(&token);
        let second = run_token(&token);
        assert_eq!(
            first.digest, second.digest,
            "{token} did not replay deterministically"
        );
        assert_eq!(first.completed, second.completed);
        assert_eq!(first.deliveries, second.deliveries);
    }
}
