//! Replays the deterministic-runtime regression corpus
//! (`tests/regressions/rt_corpus.tokens`) and property-tests the runtime
//! explorer's determinism contract.
//!
//! Every failing token in the corpus once reproduced a real bug in the
//! *deployed* node event loop — the same `NodeLoop` the TCP transport's
//! reactor steps, stepped under a virtual clock by `DeterministicRuntime`
//! (see the comments in the corpus file). Replaying them on every test run keeps
//! those bugs fixed at the layer they were found.

#[path = "common/pinned.rs"]
mod pinned;

use pinned::{corpus, replay_pinned};
use proptest::prelude::*;
use wbam::harness::rt::{generate_rt_plan, run_rt_artifacts};
use wbam::harness::{Engine, Protocol, Token, TokenVersion};

/// Replays every pinned runtime token — the whole corpus plus the first
/// sweep tokens of base seed 42 — and requires each to run clean, complete
/// every operation and reproduce its pinned digest.
#[test]
fn rt_regression_corpus_replays_clean() {
    replay_pinned(Engine::Rt, "rt_corpus.tokens", 10);
}

/// The acceptance contract of `rt1` tokens: re-running a token reproduces
/// the identical interleaving byte for byte — equal digests over every
/// delivery record *and* the scheduler's decision trace.
#[test]
fn rt_corpus_tokens_replay_byte_for_byte() {
    // One token per protocol is enough to pin the determinism contract; the
    // clean-replay test above already runs every token once.
    let mut seen = std::collections::BTreeSet::new();
    for token in corpus("rt_corpus.tokens", Engine::Rt) {
        if !seen.insert(token.protocol.label()) {
            continue;
        }
        let plan = generate_rt_plan(&token);
        let first = run_rt_artifacts(&token, &plan);
        let second = run_rt_artifacts(&token, &plan);
        assert_eq!(
            first.report.digest, second.report.digest,
            "{token} did not replay deterministically"
        );
        assert_eq!(first.trace_digest, second.trace_digest);
        assert_eq!(first.deliveries, second.deliveries);
        assert_eq!(first.report.completed, second.report.completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Twin-run determinism over arbitrary seeds and every protocol: two
    /// runs of the same `rt1` token — crashes, elections, retries and all —
    /// must produce element-wise identical delivery records and identical
    /// scheduler traces. This is deliberately *not* a cleanliness check
    /// (the sweep in CI covers that); determinism must hold even for a
    /// hypothetical future failing seed, or its token would be unreplayable.
    #[test]
    fn rt_tokens_are_deterministic(seed in 0u64..u64::MAX, proto in 0usize..3) {
        let token = Token {
            version: TokenVersion::Rt1,
            protocol: Protocol::evaluated()[proto],
            seed,
        };
        let plan = generate_rt_plan(&token);
        let first = run_rt_artifacts(&token, &plan);
        let second = run_rt_artifacts(&token, &plan);
        prop_assert_eq!(first.report.digest, second.report.digest);
        prop_assert_eq!(first.trace_digest, second.trace_digest);
        prop_assert_eq!(&first.deliveries, &second.deliveries);
        prop_assert_eq!(first.report.violation, second.report.violation);
    }
}
