//! `/proc` readers: CPU time, syscall counts, context switches and resident
//! size of the `wbamd` processes and of the benchmark's own client threads.
//!
//! Every field is looked up by key (or, for `stat`, by its documented
//! position after the parenthesised command name), never by line number.

use std::time::Duration;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times. Linux has
/// reported 100 to user space on every architecture for two decades; the
/// alternative is an FFI call to `sysconf`, which this crate avoids.
const CLK_TCK: u64 = 100;

/// User and system CPU time of a whole process (all threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTimes {
    /// Time in user mode.
    pub user: Duration,
    /// Time in kernel mode.
    pub sys: Duration,
}

impl CpuTimes {
    /// User plus system time.
    pub fn total(&self) -> Duration {
        self.user + self.sys
    }

    /// Component-wise `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }
}

/// Parses the `utime` and `stime` fields (14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let ticks = |t: u64| Duration::from_nanos(t * (1_000_000_000 / CLK_TCK));
    Some(CpuTimes {
        user: ticks(utime),
        sys: ticks(stime),
    })
}

/// The numeric value of `key` in a `key: value [unit]` file such as
/// `/proc/<pid>/status` or `/proc/<pid>/io`.
pub fn parse_keyed(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key)
            .then(|| v.split_ascii_whitespace().next()?.parse().ok())
            .flatten()
    })
}

/// The 1-minute load average from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// One reading of everything the per-layer `proc.*` metrics need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcSample {
    /// CPU time of the whole process.
    pub cpu: CpuTimes,
    /// `read`-like syscalls issued.
    pub syscr: u64,
    /// `write`-like syscalls issued.
    pub syscw: u64,
    /// Voluntary context switches, summed over threads.
    pub vol_ctxsw: u64,
    /// Involuntary context switches, summed over threads.
    pub invol_ctxsw: u64,
    /// Resident set size in KiB.
    pub rss_kb: u64,
}

/// `"self"` or a pid, as the `/proc` directory name.
fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_string(),
    }
}

/// CPU time of process `pid` (`None`: this process). `None` when the process
/// is gone.
pub fn cpu_times(pid: Option<u32>) -> Option<CpuTimes> {
    parse_stat(&std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?)
}

/// A full sample of process `pid` (`None`: this process). Context switches
/// are per thread in `/proc`, so they are summed over `task/*/status`.
pub fn sample(pid: Option<u32>) -> Option<ProcSample> {
    let dir = proc_dir(pid);
    let cpu = cpu_times(pid)?;
    let io = std::fs::read_to_string(format!("{dir}/io")).unwrap_or_default();
    let status = std::fs::read_to_string(format!("{dir}/status")).ok()?;
    let (mut vol, mut invol) = (0, 0);
    for task in std::fs::read_dir(format!("{dir}/task")).ok()?.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
            vol += parse_keyed(&text, "voluntary_ctxt_switches").unwrap_or(0);
            invol += parse_keyed(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Some(ProcSample {
        cpu,
        syscr: parse_keyed(&io, "syscr").unwrap_or(0),
        syscw: parse_keyed(&io, "syscw").unwrap_or(0),
        vol_ctxsw: vol,
        invol_ctxsw: invol,
        rss_kb: parse_keyed(&status, "VmRSS").unwrap_or(0),
    })
}

/// The host's 1-minute load average.
pub fn loadavg1() -> Option<f64> {
    parse_loadavg(&std::fs::read_to_string("/proc/loadavg").ok()?)
}

/// Pids of live processes whose command line contains `needle` — how the
/// process guard proves no `wbamd` of a finished run is still around.
pub fn pids_with_cmdline(needle: &str) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let me = std::process::id();
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != me)
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|raw| {
                    String::from_utf8_lossy(&raw)
                        .replace('\0', " ")
                        .contains(needle)
                })
                .unwrap_or(false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a live `wbamd` replica; the command name is edited to
    // hold a space and a parenthesis, which the kernel allows.
    const STAT: &str = "11158 (wb amd) x) S 11154 11158 11154 0 -1 4194304 84 0 0 0 \
        1234 567 0 0 20 0 3 0 2657347 2703360 335 18446744073709551615 94478265896960 \
        94478265916841 140734062330272 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 94478265932848";

    const STATUS: &str = "Name:\twbamd\nUmask:\t0022\nState:\tS (sleeping)\nTgid:\t11158\n\
        VmPeak:\t  220000 kB\nVmRSS:\t    1800 kB\nThreads:\t3\n\
        voluntary_ctxt_switches:\t4321\nnonvoluntary_ctxt_switches:\t17\n";

    const IO: &str = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 12\nread_bytes: 0\n\
        write_bytes: 4096\ncancelled_write_bytes: 0\n";

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let cpu = parse_stat(STAT).unwrap();
        assert_eq!(cpu.user, Duration::from_millis(12_340));
        assert_eq!(cpu.sys, Duration::from_millis(5_670));
        assert_eq!(cpu.total(), Duration::from_millis(18_010));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_deltas_saturate() {
        let a = parse_stat(STAT).unwrap();
        let later = CpuTimes {
            user: a.user + Duration::from_millis(30),
            sys: a.sys,
        };
        assert_eq!(later.since(&a).total(), Duration::from_millis(30));
        assert_eq!(a.since(&later).total(), Duration::ZERO);
    }

    #[test]
    fn status_and_io_are_read_by_key() {
        assert_eq!(parse_keyed(STATUS, "VmRSS"), Some(1800));
        assert_eq!(parse_keyed(STATUS, "voluntary_ctxt_switches"), Some(4321));
        assert_eq!(parse_keyed(STATUS, "nonvoluntary_ctxt_switches"), Some(17));
        assert_eq!(parse_keyed(STATUS, "Threads"), Some(3));
        assert_eq!(parse_keyed(STATUS, "VmSwap"), None);
        // "State" has no numeric value.
        assert_eq!(parse_keyed(STATUS, "State"), None);
        assert_eq!(parse_keyed(IO, "syscr"), Some(9));
        assert_eq!(parse_keyed(IO, "syscw"), Some(12));
        assert_eq!(parse_keyed(IO, "write_bytes"), Some(4096));
    }

    #[test]
    fn loadavg_takes_the_first_field() {
        assert_eq!(parse_loadavg("0.64 1.53 1.97 2/84 11161\n"), Some(0.64));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_sample_of_this_process_is_plausible() {
        let s = sample(None).expect("/proc/self is readable");
        assert!(s.rss_kb > 0);
        assert!(cpu_times(None).is_some());
        assert!(loadavg1().is_some());
        assert!(pids_with_cmdline("no-such-command-line-anywhere-4f1c").is_empty());
    }
}
