//! Closed-loop throughput/latency of a *deployed* loopback TCP cluster — the
//! repo's first real-hardware numbers, sitting beside the simulated (and now
//! frozen) `BENCH_throughput.json` rows.
//!
//! ```text
//! net_throughput [--smoke] [--messages N] [--wire binary|json|both] [--out FILE]
//!                [--latency-gate P50_MS]
//! ```
//!
//! Each measured point launches a fresh 2-group × 3-replica white-box cluster
//! as seven separate OS processes (six `wbamd` replicas + one `wbamd`
//! closed-loop client) over loopback TCP, runs the client to completion and
//! parses its summary. One JSON record per point is appended to
//! `BENCH_net.json` (same record shape as the simulated benches, environment
//! `"loopback-tcp"`, `wire` naming the codec). Unlike the simulated benches,
//! these numbers include real syscalls, real framing and real scheduler noise.
//!
//! Every point runs a warm-up pass first (`wbamd --warmup`): the client's
//! dials, preamble exchanges and first protocol round-trips complete before
//! the measured window opens, so short runs are not polluted by one-time
//! connection cost.
//!
//! `--wire` selects the codec(s) to measure (default `binary`; `both` runs
//! the whole sweep twice). `--smoke` shrinks the per-point message count for
//! CI and gates on basic sanity (every point completed, non-zero throughput).
//!
//! Idle-path latency is a first-class metric, not a by-product of the
//! throughput sweep: a dedicated depth-1 point (1 group, 1 outstanding — the
//! paper's 3-delay fast path with nothing queued behind it)
//! runs first for every codec and is recorded as bench `"net_latency"`.
//! `--latency-gate P50_MS` turns it into a regression gate: the run fails if
//! the *binary*-codec depth-1 p50 exceeds the bound on the best of up to
//! three attempts. Best-of-N is deliberate — on a shared CI core, scheduler
//! preemption can add ~0.1 ms to a ~0.2 ms path in any one run, but noise
//! does not reproduce across runs, while the regression this gate guards
//! against (a timed park, or a thread hand-off back on every hop) is a
//! *floor* that every attempt hits. Only the best attempt's record is kept.
//!
//! The `wbamd` binary is expected next to this one in the target directory:
//! build it first with `cargo build --release -p wbam-harness --bin wbamd`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use wbam_bench::{header, provenance};
use wbam_harness::{BenchRecord, ChildGuard, ClientSummary, DeploySpec, Protocol};
use wbam_types::wire::{from_json, WireCodec};

struct Config {
    label: &'static str,
    dest_groups: usize,
    outstanding: u64,
}

/// The dedicated idle-path latency point: a depth-1 closed loop into one
/// group, so every recorded latency is one unpipelined
/// 3-delay fast path — exactly what the wake-on-ready reactor is for.
const LATENCY_CONFIG: Config = Config {
    label: "latency: 1-group, 1 outstanding",
    dest_groups: 1,
    outstanding: 1,
};

const CONFIGS: &[Config] = &[
    Config {
        label: "1-group, 1 outstanding",
        dest_groups: 1,
        outstanding: 1,
    },
    Config {
        label: "1-group, 16 outstanding",
        dest_groups: 1,
        outstanding: 16,
    },
    Config {
        label: "2-group, 1 outstanding",
        dest_groups: 2,
        outstanding: 1,
    },
    Config {
        label: "2-group, 16 outstanding",
        dest_groups: 2,
        outstanding: 16,
    },
    Config {
        label: "1-group, 64 outstanding",
        dest_groups: 1,
        outstanding: 64,
    },
];

fn wbamd_path() -> PathBuf {
    let mut path = std::env::current_exe().expect("current exe");
    path.set_file_name("wbamd");
    assert!(
        path.exists(),
        "wbamd not found at {path:?}; build it first: \
         cargo build --release -p wbam-harness --bin wbamd"
    );
    path
}

fn run_point(
    wbamd: &PathBuf,
    dir: &std::path::Path,
    cfg: &Config,
    codec: WireCodec,
    messages: u64,
) -> ClientSummary {
    let mut spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, 2, 3, 1)
        .expect("reserve loopback ports");
    spec.wire = Some(codec.name().to_string());
    // Benchmarks never kill processes; a conservatively long election timeout
    // keeps scheduler hiccups from triggering spurious failovers mid-run.
    spec.heartbeat_ms = 100;
    spec.election_timeout_ms = 2000;
    let spec_path = dir.join("cluster.json");
    std::fs::write(&spec_path, spec.to_json().expect("serialise spec")).expect("write spec");

    // ChildGuards kill the replica processes on drop, so a panicking run
    // cannot leak them.
    let mut replicas: Vec<ChildGuard> = Vec::new();
    for id in 0..6u32 {
        replicas.push(ChildGuard(
            Command::new(wbamd)
                .arg("--spec")
                .arg(&spec_path)
                .arg("--id")
                .arg(id.to_string())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn wbamd replica"),
        ));
    }

    let dest = if cfg.dest_groups == 1 { "0" } else { "0,1" };
    // Enough warm-up traffic to dial every connection and drain the first
    // protocol round-trips before the measured window opens; scaled with the
    // pipeline depth so deeper pipelines also reach steady state.
    let warmup = (cfg.outstanding * 4).max(32);
    let summary_path = dir.join("summary.json");
    let status = Command::new(wbamd)
        .arg("--spec")
        .arg(&spec_path)
        .arg("--id")
        .arg("6")
        .arg("--multicast")
        .arg(messages.to_string())
        .arg("--warmup")
        .arg(warmup.to_string())
        .arg("--outstanding")
        .arg(cfg.outstanding.to_string())
        .arg("--dest")
        .arg(dest)
        .arg("--summary")
        .arg(&summary_path)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("run wbamd client");
    assert!(status.success(), "client exited with {status}");
    let json = std::fs::read_to_string(&summary_path).expect("read summary");
    from_json(&json).expect("parse summary")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut messages: u64 = if smoke { 200 } else { 2000 };
    let mut out = "BENCH_net.json".to_string();
    let mut wire = "binary".to_string();
    let mut latency_gate: Option<f64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--messages" => {
                messages = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--messages N");
            }
            "--out" => out = iter.next().expect("--out FILE").clone(),
            "--wire" => wire = iter.next().expect("--wire binary|json|both").clone(),
            "--latency-gate" => {
                latency_gate = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--latency-gate P50_MS"),
                );
            }
            "--smoke" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }
    let codecs: Vec<WireCodec> = match wire.as_str() {
        "both" => vec![WireCodec::Binary, WireCodec::Json],
        name => vec![WireCodec::from_name(name)
            .unwrap_or_else(|| panic!("unknown --wire {name:?} (expected binary, json or both)"))],
    };

    header("Loopback TCP deployment: closed-loop throughput & latency");
    println!(
        "2 groups x 3 replicas + 1 client, separate OS processes, {} messages/point\n",
        messages
    );
    println!(
        "{:<36} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "configuration", "wire", "msg/s", "p50 ms", "p99 ms", "mean ms"
    );

    let wbamd = wbamd_path();
    let dir = std::env::temp_dir().join(format!("wbam-net-throughput-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let mut records = Vec::new();
    fn measure(
        wbamd: &PathBuf,
        dir: &std::path::Path,
        messages: u64,
        records: &mut Vec<BenchRecord>,
        cfg: &Config,
        codec: WireCodec,
        bench: &str,
    ) -> ClientSummary {
        let summary = run_point(wbamd, dir, cfg, codec, messages);
        assert_eq!(summary.completed, messages, "{}: incomplete run", cfg.label);
        assert!(
            summary.throughput_msg_s > 0.0,
            "{}: zero throughput",
            cfg.label
        );
        // Benchmarks never kill processes, so the fair-lossy escape hatch
        // must stay unused — a drop here means latencies include protocol
        // retries and the numbers are not what they claim to be.
        assert_eq!(
            summary.dropped_frames, 0,
            "{}: transport dropped frames during a fault-free bench run",
            cfg.label
        );
        println!(
            "{:<36} {:>7} {:>12.1} {:>10.3} {:>10.3} {:>10.3}",
            cfg.label,
            codec.name(),
            summary.throughput_msg_s,
            summary.latency_p50_ms,
            summary.latency_p99_ms,
            summary.latency_mean_ms
        );
        records.push(BenchRecord {
            bench: bench.to_string(),
            environment: "loopback-tcp".to_string(),
            wire: Some(codec.name().to_string()),
            protocol: Protocol::WhiteBox.label().to_string(),
            clients: 1,
            dest_groups: cfg.dest_groups,
            throughput_msg_s: summary.throughput_msg_s,
            latency_p50_ms: summary.latency_p50_ms,
            latency_p99_ms: summary.latency_p99_ms,
            latency_mean_ms: summary.latency_mean_ms,
            git_rev: None,
            host_cores: None,
            window: Some(cfg.outstanding),
        });
        summary
    }
    for &codec in &codecs {
        // The latency point first, while the host is coolest.
        let mut latency = measure(
            &wbamd,
            &dir,
            messages,
            &mut records,
            &LATENCY_CONFIG,
            codec,
            "net_latency",
        );
        if codec == WireCodec::Binary {
            if let Some(gate) = latency_gate {
                // Best of up to three attempts (see module docs): scheduler
                // noise does not reproduce, a park regression does. Keep only
                // the best attempt's record.
                for _ in 0..2 {
                    if latency.latency_p50_ms <= gate {
                        break;
                    }
                    println!(
                        "  (p50 {:.3} ms over the {gate:.3} ms gate — re-running the \
                         latency point to rule out scheduler noise)",
                        latency.latency_p50_ms
                    );
                    let retry = measure(
                        &wbamd,
                        &dir,
                        messages,
                        &mut records,
                        &LATENCY_CONFIG,
                        codec,
                        "net_latency",
                    );
                    let worse_back_offset = if retry.latency_p50_ms < latency.latency_p50_ms {
                        latency = retry;
                        2 // the previous attempt's record
                    } else {
                        1 // the retry's record
                    };
                    records.remove(records.len() - worse_back_offset);
                }
                assert!(
                    latency.latency_p50_ms <= gate,
                    "latency gate: depth-1 binary p50 {:.3} ms exceeds the {gate:.3} ms bound \
                     on every attempt — the idle-path wake regression is back",
                    latency.latency_p50_ms
                );
            }
        }
        for cfg in CONFIGS {
            measure(
                &wbamd,
                &dir,
                messages,
                &mut records,
                cfg,
                codec,
                "net_throughput",
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Every row says which commit and host produced it.
    let (git_rev, host_cores) = provenance();
    for record in &mut records {
        record.git_rev = git_rev.clone();
        record.host_cores = host_cores;
    }

    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .expect("open bench output");
        for record in &records {
            let line = serde_json::to_string(record).expect("serialise record");
            writeln!(file, "{line}").expect("write record");
        }
    }
    println!("\nappended {} records to {out}", records.len());
}
