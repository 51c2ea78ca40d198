//! The regression corpora and the pinned run digests of
//! `tests/regressions/digests.golden`, shared by the simulator and runtime
//! regression tests.

use wbam_harness::{run_token, Engine, Token};

/// Reads a file of `tests/regressions`, skipping comments and blank lines.
fn lines(name: &str) -> Vec<String> {
    let path = format!("{}/tests/regressions/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The tokens of corpus file `name`, each parsed for `engine`.
pub fn corpus(name: &str, engine: Engine) -> Vec<Token> {
    let tokens: Vec<Token> = lines(name)
        .iter()
        .map(|l| {
            Token::parse_for(engine, l).unwrap_or_else(|e| panic!("bad corpus token `{l}`: {e}"))
        })
        .collect();
    assert!(!tokens.is_empty(), "corpus {name} must not be empty");
    tokens
}

/// The pinned `(token, digest)` pairs of one engine.
pub fn golden(engine: Engine) -> Vec<(Token, u64)> {
    lines("digests.golden")
        .iter()
        .map(|l| {
            let (token, digest) = l.split_once(' ').expect("`<token> <digest>`");
            let token = Token::parse(token).expect("pinned token parses");
            let digest = u64::from_str_radix(digest.trim(), 16).expect("hex digest");
            (token, digest)
        })
        .filter(|(token, _)| token.engine() == engine)
        .collect()
}

/// Replays every pinned token of `engine` — corpus file `corpus_file` (of
/// `corpus_len` tokens) plus the first 30 sweep tokens of base seed 42 — and
/// requires each to run clean and reproduce its pinned digest; on the
/// deterministic runtime every operation must also complete.
pub fn replay_pinned(engine: Engine, corpus_file: &str, corpus_len: usize) {
    let corpus = corpus(corpus_file, engine);
    let pinned = golden(engine);
    assert_eq!(corpus.len(), corpus_len, "{corpus_file} lost tokens");
    assert_eq!(
        pinned.len(),
        corpus_len + 30,
        "pinned {engine} digests lost lines"
    );
    for token in corpus {
        assert!(
            pinned.iter().any(|(t, _)| *t == token),
            "corpus token {token} has no pinned digest"
        );
    }
    let mut failures = Vec::new();
    for (token, digest) in &pinned {
        let report = run_token(token);
        if let Some(violation) = report.violation {
            failures.push(format!("{token}: {violation}"));
        }
        if engine == Engine::Rt && report.completed != report.ops {
            failures.push(format!(
                "{token}: only {} of {} operations completed",
                report.completed, report.ops
            ));
        }
        if report.digest != *digest {
            failures.push(format!(
                "{token}: digest {:016x}, pinned {digest:016x}",
                report.digest
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "previously fixed bugs reappeared or behaviour changed:\n{}",
        failures.join("\n")
    );
}
