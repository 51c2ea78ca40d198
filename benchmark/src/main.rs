//! `wbam-benchmark`: the repo's one benchmark. See `README.md` next to this
//! crate for the metrics and `run.sh` for how it is built and started.

mod affinity;
mod bench;
mod check;
mod cluster;
mod echo;
mod layers;
mod load;
mod procfs;
mod reference;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Config, Outcome};
use report::{result_line, RunInfo};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: wbam-benchmark --wbamd PATH --out DIR [--build-s S] [--git-rev REV]
    [--seed N] [--seconds S]
    (no further arguments)             all four workloads untraced, then the traced pass
    --workload NAME --trace 0|1        one run; the last stdout line is the result object
    --calibrate K                      K interleaved sets; prints the noise table";

struct Args {
    cfg: Config,
    git_rev: String,
    seed: u64,
    seconds: usize,
    workload: Option<Workload>,
    trace: bool,
    calibrate: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut wbamd = None;
    let mut out = None;
    let mut args = Args {
        cfg: Config {
            wbamd: PathBuf::new(),
            out: PathBuf::new(),
            build_s: 0.0,
        },
        git_rev: "unknown".to_string(),
        seed: 1,
        seconds: 20,
        workload: None,
        trace: false,
        calibrate: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--wbamd" => wbamd = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--build-s" => args.cfg.build_s = number(&flag, value()?)?,
            "--git-rev" => args.git_rev = value()?,
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = number(&flag, value()?)?,
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--trace" => args.trace = number::<u8>(&flag, value()?)? != 0,
            "--calibrate" => args.calibrate = Some(number(&flag, value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.cfg.wbamd = wbamd.ok_or("--wbamd is required")?;
    args.cfg.out = out.ok_or("--out is required")?;
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    if matches!(args.calibrate, Some(k) if k < 3) {
        return Err("--calibrate needs at least 3 sets".to_string());
    }
    Ok(args)
}

fn describe(w: &Workload) -> String {
    let dest = match w.mix {
        workload::DestMix::SingleGroup => "{g0}".to_string(),
        workload::DestMix::Conflict => "30% {g0}, 30% {g1}, 40% {g0,g1}".to_string(),
    };
    format!(
        "{}: closed loop, 1 client, window {}, {} B to {dest}; {} wbamd on loopback TCP, \
         binary codec, max_batch 1, no injected delay (latency is processor + kernel time only)",
        w.name,
        w.window,
        w.payload,
        w.groups * cluster::GROUP_SIZE
    )
}

/// Prints a pass's metrics and appends them to `results.jsonl`.
fn report(
    args: &Args,
    w: Option<&Workload>,
    traced: bool,
    outcome: &Outcome,
) -> Result<(), String> {
    let name = w.map_or("layers", |w| w.name);
    if let Some(bad) = outcome.metrics.first_non_finite() {
        return Err(format!("metric {} is not finite ({})", bad.name, bad.value));
    }
    print!("{}", outcome.metrics.render("  "));
    if !outcome.as_measured.0.is_empty() {
        println!("  as measured, before the host-speed correction:");
        print!("{}", outcome.as_measured.render("    "));
    }
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for v in &outcome.violations {
        eprintln!("CHECK FAILED ({name}): {v}");
    }
    let info = RunInfo {
        run_id: format!("{}-{name}-{}", std::process::id(), traced as u8),
        git_rev: args.git_rev.clone(),
        seed: args.seed,
        workload: name,
        window: w.map_or(0, |w| w.window),
        payload: w.map_or(0, |w| w.payload),
        codec: "binary",
        slices: if traced {
            bench::traced_slices(args.seconds)
        } else {
            args.seconds
        },
        traced,
        host_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
    };
    report::append_results(&args.cfg.out.join("results.jsonl"), &info, &outcome.metrics)
        .map_err(|e| format!("results.jsonl: {e}"))
}

/// Runs one pass of one workload and reports it.
fn run_one(
    args: &Args,
    w: &Workload,
    traced: bool,
    pass: impl FnOnce() -> Result<Outcome, String>,
) -> Result<Outcome, String> {
    println!(
        "{}{}",
        describe(w),
        if traced { " [traced pass]" } else { "" }
    );
    let outcome = pass()?;
    report(args, Some(w), traced, &outcome)?;
    Ok(outcome)
}

fn run(args: &Args) -> Result<bool, String> {
    let (cfg, seed, seconds) = (&args.cfg, args.seed, args.seconds);
    if let Some(sets) = args.calibrate {
        return bench::calibrate(cfg, &WORKLOADS, sets, seed, seconds);
    }
    let trace_path = cfg.out.join("trace.jsonl");
    let write_trace = |rows: &[report::TraceRow]| {
        report::write_trace(&trace_path, rows).map_err(|e| format!("trace.jsonl: {e}"))
    };
    if let Some(w) = &args.workload {
        let outcome = run_one(args, w, args.trace, || {
            if args.trace {
                bench::run_traced(cfg, w, seed, seconds)
            } else {
                bench::run_untraced(cfg, w, seed, seconds)
            }
        })?;
        if args.trace {
            write_trace(&outcome.trace)?;
        }
        println!(
            "{}",
            result_line(
                outcome.correct(),
                outcome.attempted.max(1),
                outcome.failed,
                &outcome.metrics
            )
        );
        return Ok(outcome.correct());
    }
    // The full run: every workload untraced, then the traced pass — the
    // workload-independent layers once, the deployed ones per workload.
    let mut correct = true;
    for w in &WORKLOADS {
        correct &= run_one(args, w, false, || {
            bench::run_untraced(cfg, w, seed, seconds)
        })?
        .correct();
    }
    println!("layers: replays, baselines, echo pairs, host and fault probes [traced pass]");
    let (mut traced, ledger) = bench::shared_layers(cfg, seed)?;
    report(args, None, true, &traced)?;
    let slices = bench::traced_slices(seconds);
    for w in &WORKLOADS {
        traced.absorb(run_one(args, w, true, || {
            bench::deployed_layers(cfg, w, seed, slices, &ledger)
        })?);
    }
    write_trace(&traced.trace)?;
    Ok(correct && traced.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wbam-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything is spawned: threads and child processes inherit it.
    match affinity::pin_to_last_cpu() {
        Ok(cpu) => {
            println!("pinned to CPU {cpu}: the cluster, the client and every probe share it")
        }
        Err(e) => println!("not pinned to one CPU ({e}): expect noisier numbers"),
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wbam-benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("wbam-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
