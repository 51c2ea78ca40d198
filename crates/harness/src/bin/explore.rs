//! The schedule explorer CLI, one front-end for three engines.
//!
//! ```text
//! explore [--engine sim|rt|net] [--schedules N] [--seed S] [--no-minimize] [--out FILE]
//!         [--messages M] [--logs DIR] [--wbamd PATH]
//! explore --replay TOKEN [--engine E] [--messages M] [--logs DIR] [--wbamd PATH]
//! ```
//!
//! A sweep runs `N` seeded schedules (default 200, or 5 deployed plans) on
//! one engine — `sim`, `rt` or `net`, see `wbam_harness::explore` — and
//! checks every run. `--messages`, `--logs` and `--wbamd` (or `WBAMD_BIN`)
//! configure deployed runs. Any violation prints the replayable token, with
//! a greedily minimized nemesis plan on the replayable engines, and makes
//! the process exit non-zero;
//! `--out` writes the failing tokens to `FILE`, replacing its contents.
//! `--replay` re-runs one token on the engine its version names.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wbam_harness::{explore, Engine, ExploreConfig, Plan, Report, Token};

const USAGE: &str = "usage: explore [--engine sim|rt|net] [--schedules N] [--seed S] \
                     [--no-minimize] [--out FILE] [--replay TOKEN] [--messages M] \
                     [--logs DIR] [--wbamd PATH]";

fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args() -> Result<(ExploreConfig, Option<String>), String> {
    let mut config = ExploreConfig::default();
    let (mut engine, mut schedules, mut replay, mut out) = (None, None, None, None);
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--engine" => {
                let name = value("--engine")?;
                engine = Some(
                    Engine::from_name(&name)
                        .ok_or_else(|| format!("--engine: unknown engine `{name}`"))?,
                );
            }
            "--schedules" => schedules = Some(number("--schedules", value("--schedules")?)?),
            "--seed" => config.base_seed = number("--seed", value("--seed")?)?,
            "--no-minimize" => config.minimize = false,
            "--out" => out = Some(value("--out")?),
            "--replay" => replay = Some(value("--replay")?),
            "--messages" => config.messages = Some(number("--messages", value("--messages")?)?),
            "--logs" => config.log_dir = Some(PathBuf::from(value("--logs")?)),
            "--wbamd" => config.wbamd = Some(PathBuf::from(value("--wbamd")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if let Some(text) = replay {
        let token = match engine {
            Some(engine) => Token::parse_for(engine, &text),
            None => Token::parse(&text),
        };
        let token = token.map_err(|e| format!("bad token: {e}"))?;
        config.replay = Some(token);
        config.minimize = false;
        engine = Some(token.engine());
    }
    config.engine = engine.unwrap_or(Engine::Sim);
    config.schedules = schedules.unwrap_or(match config.engine {
        Engine::Net => 5,
        _ => 200,
    });
    Ok((config, out))
}

fn describe(report: &Report, elapsed: std::time::Duration) {
    println!(
        "{}: digest {:016x}; {}/{} ops completed, {} deliveries, {} reads checked, \
         {} dropped, {} duplicated in {elapsed:.1?}",
        report.token,
        report.digest,
        report.completed,
        report.ops,
        report.deliveries,
        report.checked_reads,
        report.dropped,
        report.duplicated,
    );
    if let Some(p) = &report.proxy {
        println!(
            "  proxy: {} forwarded, {} dropped, {} duplicated, {} delayed, {} severed",
            p.forwarded, p.dropped, p.duplicated, p.delayed, p.severed,
        );
    }
    match &report.violation {
        None => println!("  OK"),
        Some(violation) => println!("  VIOLATION: {violation}"),
    }
}

fn main() -> ExitCode {
    let (config, out) = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(token) = &config.replay {
        let plan = Plan::generate(token, config.messages);
        println!("replaying {token}\n  plan: {}", plan.describe());
        println!("  nemesis: {:?}", plan.nemesis());
    }

    // Per-run lines for replays and for the slow deployed runs only; the
    // deterministic sweeps run hundreds of schedules a second.
    let verbose = config.replay.is_some() || config.engine == Engine::Net;
    let (started, mut last) = (Instant::now(), Instant::now());
    let exploration = explore(&config, |report| {
        if verbose {
            describe(report, last.elapsed());
        }
        last = Instant::now();
    });
    let e = &exploration;
    println!(
        "explored {} {} schedule(s) in {:.1?} (base seed {}): {} ops submitted, \
         {} completed; {} crashes, {} partitions, {} messages dropped, {} duplicated",
        e.schedules,
        config.engine,
        started.elapsed(),
        config.base_seed,
        e.total_ops,
        e.total_completed,
        e.crashes,
        e.partitions,
        e.dropped,
        e.duplicated,
    );
    if e.findings.is_empty() {
        println!("no violations: every run passed its engine's checks");
        return ExitCode::SUCCESS;
    }

    let mut failing = String::new();
    for finding in &e.findings {
        let report = &finding.report;
        let violation = report.violation.as_deref().unwrap_or_default();
        println!("\nFAILING SCHEDULE: {}\n  {violation}", report.token);
        if let Some(plan) = &finding.minimized {
            println!("  minimized nemesis plan: {plan:?}");
        }
        if let Some(dir) = &report.log_dir {
            println!("  logs: {}", dir.display());
        }
        // Deployed findings keep their violation next to the token; the
        // others are bare tokens, ready for a corpus file.
        failing += &match report.token.engine() {
            Engine::Net => format!("{} {violation}\n", report.token),
            _ => format!("{}\n", report.token),
        };
        println!(
            "  replay with: cargo run --release -p wbam-harness --bin explore -- \
             --replay '{}'",
            report.token
        );
    }
    if let Some(path) = &out {
        match std::fs::write(path, failing) {
            Ok(()) => println!("\nwrote {} failing seed(s) to {path}", e.findings.len()),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
    ExitCode::FAILURE
}
