//! The documents cite measurements as `EXPERIMENTS.md "<title>"`. A citation
//! whose section does not exist sends a reader to nothing, so every such
//! title must be a heading of `EXPERIMENTS.md`: the whole heading, or its
//! text before the first ` — ` (headings end in ` — <date> — <revision>`).

use std::path::Path;

/// The documents whose citations are checked.
const CITING: [&str; 5] = [
    "DESIGN.md",
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "WIRE.md",
];

const TARGET: &str = "EXPERIMENTS.md";

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The quoted titles that follow `EXPERIMENTS.md` in `text`, optionally
/// after a comma or colon; a title may wrap across lines, and its
/// whitespace is collapsed to single spaces.
fn citations(text: &str) -> Vec<String> {
    text.split(TARGET)
        .skip(1)
        .filter_map(|after| {
            let quoted = after
                .trim_start_matches([',', ':'])
                .trim_start()
                .strip_prefix('"')?;
            let title = &quoted[..quoted.find('"')?];
            Some(title.split_whitespace().collect::<Vec<_>>().join(" "))
        })
        .collect()
}

fn is_heading(title: &str, headings: &[&str]) -> bool {
    headings.iter().any(|heading| {
        *heading == title
            || heading
                .strip_prefix(title)
                .is_some_and(|rest| rest.starts_with(" — "))
    })
}

#[test]
fn citations_are_parsed_across_lines_and_punctuation() {
    let text = "see EXPERIMENTS.md \"One\" and (EXPERIMENTS.md, \"Two\nwords\"), \
                EXPERIMENTS.md: \"Three\", but not EXPERIMENTS.md alone or \"Four\".";
    assert_eq!(citations(text), ["One", "Two words", "Three"]);
    let headings = ["Two words — 2026-09-27 — abc1234", "Three"];
    assert!(is_heading("Two words", &headings));
    assert!(is_heading("Three", &headings));
    assert!(!is_heading("Two", &headings));
    assert!(!is_heading("One", &headings));
}

#[test]
fn every_experiments_citation_names_a_heading() {
    let experiments = read(TARGET);
    let headings: Vec<&str> = experiments
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| line.trim_start_matches('#').trim())
        .collect();
    let dangling: Vec<String> = CITING
        .iter()
        .flat_map(|doc| {
            citations(&read(doc))
                .into_iter()
                .filter(|title| !is_heading(title, &headings))
                .map(move |title| format!("{doc} cites {TARGET} \"{title}\""))
        })
        .collect();
    assert!(
        dangling.is_empty(),
        "citations of sections {TARGET} does not have:\n{}",
        dangling.join("\n")
    );
}

/// The documents that name ROADMAP items by their hazard or by the PR that
/// closed them, never by number: the numbers change at every re-anchor.
/// EXPERIMENTS.md and CHANGES.md are dated logs and keep theirs.
const UNNUMBERED: [&str; 3] = ["DESIGN.md", "README.md", "WIRE.md"];

/// Every `ROADMAP item <digit>…` in `text`, across line breaks.
fn roadmap_item_numbers(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    words
        .windows(3)
        .filter(|w| {
            w[0].ends_with("ROADMAP")
                && w[1] == "item"
                && w[2].starts_with(|c: char| c.is_ascii_digit())
        })
        .map(|w| w.join(" "))
        .collect()
}

#[test]
fn no_document_cites_a_roadmap_item_by_number() {
    let text = "(ROADMAP\nitem 3) and ROADMAP item 12(e), not ROADMAP items 1 or ROADMAP item two";
    assert_eq!(
        roadmap_item_numbers(text),
        ["(ROADMAP item 3)", "ROADMAP item 12(e),"]
    );
    let numbered: Vec<String> = UNNUMBERED
        .iter()
        .flat_map(|doc| {
            roadmap_item_numbers(&read(doc))
                .into_iter()
                .map(move |cite| format!("{doc}: {cite}"))
        })
        .collect();
    assert!(
        numbered.is_empty(),
        "name the hazard or the PR instead:\n{}",
        numbered.join("\n")
    );
}
