//! Estimators: every number the benchmark reports goes through one of these.
//!
//! The end-to-end metrics are medians — over one-second slices for rates,
//! over every sample for latency — because on a small shared host a
//! seconds-long neighbour burst or one 50 ms stall moves a mean and leaves a
//! median where it was.

use std::time::Duration;

/// Median of `values` (the midpoint of the two middle elements for an even
/// count). `None` for an empty input: a window that measured nothing has no
/// rate, and a silent zero would read as a result.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile by the rule `harness::LatencyStats` uses,
/// `index = round((n - 1) * p)` on the sorted sample, so every reported
/// percentile is a latency that occurred. `sorted` must be ascending.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Some(sorted[idx])
}

/// Arithmetic mean; `None` for an empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Coefficient of variation (population standard deviation over mean): the
/// spread of a run's slice throughputs, its own noise gauge.
pub fn coefficient_of_variation(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    if m == 0.0 {
        return None;
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt() / m)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), which is how the acceptance rule
/// computes a metric's spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| -> f64 {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// One slice of a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Wall length of the slice.
    pub wall: Duration,
    /// Client-acked multicasts that completed in the slice.
    pub acked: u64,
    /// User+sys CPU all measured processes burnt in the slice.
    pub cpu: Duration,
    /// How much slower than nominal the host ran around the slice, as the
    /// host-speed reference (`reference.rs`) measured it just before and just
    /// after; 1 for a slice no reference was taken with.
    pub slowdown: f64,
}

impl Slice {
    /// Acked multicasts per second of this slice, at the nominal host speed.
    pub fn throughput(&self) -> Option<f64> {
        Some(self.acked as f64 / self.wall.as_secs_f64() * self.slowdown)
    }

    /// CPU microseconds per acked multicast, at the nominal host speed;
    /// `None` for a slice that acked nothing.
    pub fn cpu_us_per_msg(&self) -> Option<f64> {
        (self.acked > 0).then(|| self.cpu.as_secs_f64() * 1e6 / self.acked as f64 / self.slowdown)
    }

    /// The same slice as the clock saw it, with no host-speed correction.
    pub fn as_measured(&self) -> Slice {
        Slice {
            slowdown: 1.0,
            ..*self
        }
    }
}

/// Median over the slices of a per-slice value.
pub fn slice_median(slices: &[Slice], value: fn(&Slice) -> Option<f64>) -> Option<f64> {
    median(&slices.iter().filter_map(value).collect::<Vec<_>>())
}

/// A due-time schedule for an open-loop generator: message `k` is due at
/// `k / rate` after the start, whatever happened to the messages before it.
#[derive(Debug, Clone)]
pub struct OpenLoopSchedule {
    interval: Duration,
    next: u64,
    lateness_ns: Vec<u64>,
}

impl OpenLoopSchedule {
    /// A schedule of `rate_per_s` sends per second.
    pub fn new(rate_per_s: u32) -> Self {
        OpenLoopSchedule {
            interval: Duration::from_secs(1) / rate_per_s,
            next: 0,
            lateness_ns: Vec::new(),
        }
    }

    /// Due time of message `k`, measured from the start of the schedule.
    pub fn due(&self, k: u64) -> Duration {
        self.interval * k as u32
    }

    /// Due time of the next unsent message.
    pub fn next_due(&self) -> Duration {
        self.due(self.next)
    }

    /// If a message is due at `now`, marks it sent and returns its *due* time
    /// — the time its latency is measured from. A generator that ran late
    /// records how late; the due times themselves never move.
    pub fn take_due(&mut self, now: Duration) -> Option<Duration> {
        let due = self.next_due();
        if now < due {
            return None;
        }
        self.lateness_ns.push((now - due).as_nanos() as u64);
        self.next += 1;
        Some(due)
    }

    /// 99th-percentile generator lateness.
    pub fn late_p99(&self) -> Option<Duration> {
        let mut sorted = self.lateness_ns.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, 0.99).map(Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_harness::LatencyStats;

    fn slice(acked: u64, wall_ms: u64, cpu_ms: u64) -> Slice {
        Slice {
            wall: Duration::from_millis(wall_ms),
            acked,
            cpu: Duration::from_millis(cpu_ms),
            slowdown: 1.0,
        }
    }

    #[test]
    fn a_slow_hosts_slice_is_scaled_to_the_nominal_speed() {
        // The reference took 1.25 times its nominal time: the host would have
        // done a quarter more at nominal speed, in four fifths of the CPU.
        let slow = Slice {
            slowdown: 1.25,
            ..slice(800, 1000, 400)
        };
        assert_eq!(slow.throughput(), Some(1000.0));
        assert_eq!(slow.cpu_us_per_msg(), Some(400.0));
        assert_eq!(slow.as_measured().throughput(), Some(800.0));
        assert_eq!(slow.as_measured().cpu_us_per_msg(), Some(500.0));
    }

    #[test]
    fn median_on_odd_even_and_outlier_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        // One stalled second out of five does not move the estimate; it
        // moves the mean by a fifth.
        let steady = [1000.0, 1010.0, 990.0, 1005.0, 995.0];
        let stalled = [1000.0, 1010.0, 10.0, 1005.0, 995.0];
        assert_eq!(median(&steady), Some(1000.0));
        assert_eq!(median(&stalled), Some(1000.0));
        assert!(mean(&stalled).unwrap() < 810.0);
    }

    #[test]
    fn slice_medians_use_each_slices_own_length() {
        let slices = [
            slice(1000, 1000, 500),
            slice(2200, 1100, 550),
            slice(900, 1000, 450),
        ];
        // Rates 1000, 2000, 900 → median 1000.
        assert_eq!(slice_median(&slices, Slice::throughput), Some(1000.0));
        // 500, 250, 500 µs per message → median 500.
        assert_eq!(slice_median(&slices, Slice::cpu_us_per_msg), Some(500.0));
        // A slice that acked nothing has a rate (zero) but no per-message
        // cost.
        let with_empty = [slice(0, 1000, 10), slice(100, 1000, 100)];
        assert_eq!(slice_median(&with_empty, Slice::throughput), Some(50.0));
        assert_eq!(
            slice_median(&with_empty, Slice::cpu_us_per_msg),
            Some(1000.0)
        );
        assert_eq!(slice_median(&[], Slice::throughput), None);
    }

    #[test]
    fn percentile_agrees_with_the_harness_rule() {
        for n in [1usize, 2, 3, 4, 5, 10, 99, 100, 101, 1000] {
            // A scrambled but known sample.
            let sample: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 10_007 + 1).collect();
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            let mut durations: Vec<Duration> =
                sample.iter().map(|&us| Duration::from_micros(us)).collect();
            let reference = LatencyStats::from_sample(&mut durations).unwrap();
            let p50 = percentile_sorted(&sorted, 0.5).unwrap();
            let p99 = percentile_sorted(&sorted, 0.99).unwrap();
            assert!(
                (p50 as f64 / 1e3 - reference.p50_ms).abs() < 1e-9,
                "p50 at n={n}"
            );
            assert!(
                (p99 as f64 / 1e3 - reference.p99_ms).abs() < 1e-9,
                "p99 at n={n}"
            );
        }
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(iqr_share(&ten), Some(5.5 / 5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn cv_is_zero_for_a_flat_run() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), Some(0.0));
        let cv = coefficient_of_variation(&[90.0, 110.0]).unwrap();
        assert!((cv - 0.1).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[]), None);
    }

    #[test]
    fn open_loop_keeps_due_times_fixed_and_reports_lateness() {
        let mut schedule = OpenLoopSchedule::new(500); // every 2 ms
        assert_eq!(schedule.due(3), Duration::from_millis(6));
        // On time.
        assert_eq!(schedule.take_due(Duration::ZERO), Some(Duration::ZERO));
        // Not yet due.
        assert_eq!(schedule.take_due(Duration::from_millis(1)), None);
        // The generator stalls until t = 9 ms: messages 1..=4 were due at 2,
        // 4, 6 and 8 ms, and each keeps its own due time.
        let now = Duration::from_millis(9);
        let mut taken = Vec::new();
        while let Some(t) = schedule.take_due(now) {
            taken.push(t);
        }
        assert_eq!(
            taken,
            (1..=4u64)
                .map(|k| Duration::from_millis(2 * k))
                .collect::<Vec<_>>()
        );
        assert_eq!(schedule.next_due(), Duration::from_millis(10));
        // Lateness 0, 7, 5, 3, 1 ms → p99 is the worst one.
        assert_eq!(schedule.late_p99(), Some(Duration::from_millis(7)));
    }
}
