//! Shared helpers for the figure-reproduction binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding binary
//! in `src/bin/` (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results):
//!
//! | experiment | binary |
//! |---|---|
//! | "Table 1" — collision-free / failure-free latencies | `table1_latency` |
//! | Figure 2 — convoy effect in Skeen's protocol | `fig2_convoy` |
//! | Figure 5 — white-box message flow (3δ / 4δ) | `fig5_flow` |
//! | Figure 7 — LAN latency & throughput sweep | `fig7_lan` |
//! | Figure 8 — WAN latency & throughput sweep | `fig8_wan` |
//! | Ablation A1 — speculative clock update | `ablation_speculative_clock` |
//! | Ablation A2 — genuine scalability | `ablation_genuine_scaling` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::process::{Command, Stdio};
use std::time::Duration;

/// Returns the experiment scale factor from the `WBAM_SCALE` environment
/// variable (default 1). The Figure 7/8 sweeps multiply their client counts
/// and run durations by this factor, so `WBAM_SCALE=5` approaches the paper's
/// client counts at the cost of much longer simulations.
pub fn scale() -> u64 {
    std::env::var("WBAM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v >= 1)
        .unwrap_or(1)
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Where a `BENCH_*.json` row was measured: the short git revision of the
/// working directory's checkout (`None` outside one, or without `git`) and
/// the CPUs this process may use. Stamped on every row so that a row says
/// which commit and host produced it.
pub fn provenance() -> (Option<String>, Option<usize>) {
    let git_rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|rev| rev.trim().to_string());
    let host_cores = std::thread::available_parallelism().ok().map(usize::from);
    (git_rev, host_cores)
}

/// Prints a section header in the style used by all experiment binaries.
pub fn header(title: &str) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn provenance_names_the_host_cores() {
        let (rev, cores) = provenance();
        assert!(cores.is_some_and(|c| c >= 1));
        assert!(rev.map_or(true, |r| !r.is_empty() && !r.contains('\n')));
    }

    #[test]
    fn ms_formats_two_decimals() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }
}
