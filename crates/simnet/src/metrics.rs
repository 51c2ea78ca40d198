//! Delivery records and latency / throughput statistics.
//!
//! The simulator records every `deliver(m)` event; the functions here compute
//! the metrics used in the paper's evaluation:
//!
//! * **Delivery latency** of a message with respect to a destination group:
//!   the time from `multicast(m)` to the *earliest* delivery of `m` by some
//!   process of the group (§II, "our latency metrics are computed based on the
//!   first delivery of a message in every destination group").
//! * **Throughput**: messages partially delivered per second of simulated time.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_types::{GroupId, MsgId, ProcessId, Timestamp};

/// One `deliver(m)` event observed by the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryRecord {
    /// Simulated time of the delivery.
    pub time: Duration,
    /// The process that delivered the message.
    pub process: ProcessId,
    /// The group of the delivering process, when it belongs to one.
    pub group: Option<GroupId>,
    /// The delivered application message.
    pub msg_id: MsgId,
    /// The message's global timestamp as reported by the protocol, if known.
    pub global_ts: Option<Timestamp>,
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: Duration,
    /// Median (50th percentile) latency.
    pub p50: Duration,
    /// 95th percentile latency.
    pub p95: Duration,
    /// 99th percentile latency.
    pub p99: Duration,
    /// Maximum latency.
    pub max: Duration,
    /// Minimum latency.
    pub min: Duration,
}

impl LatencyStats {
    /// Computes summary statistics from a set of samples.
    ///
    /// Returns a zeroed record when `samples` is empty.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let total: Duration = samples.iter().sum();
        let pct = |p: f64| -> Duration {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            samples[idx.min(count - 1)]
        };
        LatencyStats {
            count,
            mean: total / count as u32,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *samples.last().unwrap(),
            min: samples[0],
        }
    }
}

/// Throughput summary for a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ThroughputStats {
    /// Number of messages that were partially delivered (delivered by at least
    /// one process in each destination group) during the run.
    pub delivered_messages: usize,
    /// Length of the measured interval (simulated time).
    pub duration: Duration,
    /// Delivered messages per second of simulated time.
    pub messages_per_second: f64,
}

/// A read-only view over a run's deliveries and multicast times, with helpers
/// to compute the paper's metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsView {
    deliveries: Vec<DeliveryRecord>,
    multicast_times: BTreeMap<MsgId, Duration>,
    /// Destination groups of each multicast message.
    destinations: BTreeMap<MsgId, Vec<GroupId>>,
    /// Earliest delivery time per `(message, group)`, precomputed so that the
    /// per-message latency queries cost a lookup instead of a scan over every
    /// delivery record (throughput runs produce hundreds of thousands).
    first_delivery: BTreeMap<(MsgId, GroupId), Duration>,
    /// Named point-in-time gauges attached by the harness (e.g. resident
    /// record counts under compaction), keyed by gauge name.
    gauges: BTreeMap<String, f64>,
}

impl MetricsView {
    /// Creates a view from raw run data.
    pub fn new(
        deliveries: Vec<DeliveryRecord>,
        multicast_times: BTreeMap<MsgId, Duration>,
        destinations: BTreeMap<MsgId, Vec<GroupId>>,
    ) -> Self {
        let mut first_delivery: BTreeMap<(MsgId, GroupId), Duration> = BTreeMap::new();
        for d in &deliveries {
            if let Some(g) = d.group {
                first_delivery
                    .entry((d.msg_id, g))
                    .and_modify(|t| *t = (*t).min(d.time))
                    .or_insert(d.time);
            }
        }
        MetricsView {
            deliveries,
            multicast_times,
            destinations,
            first_delivery,
            gauges: BTreeMap::new(),
        }
    }

    /// Attaches (or overwrites) a named gauge — a point-in-time measurement
    /// such as a replica's resident record count.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Reads a named gauge, if the harness attached it.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All delivery records, in delivery order.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// The time at which a message was multicast, if known.
    pub fn multicast_time(&self, m: MsgId) -> Option<Duration> {
        self.multicast_times.get(&m).copied()
    }

    /// The earliest delivery of `m` by any process of group `g`.
    pub fn first_delivery_in_group(&self, m: MsgId, g: GroupId) -> Option<Duration> {
        self.first_delivery.get(&(m, g)).copied()
    }

    /// The worst delivery latency of `m` over all its destination groups:
    /// `max_g (first delivery in g) - multicast(m)`.
    pub fn latency(&self, m: MsgId) -> Option<Duration> {
        let start = self.multicast_time(m)?;
        let dests = self.destinations.get(&m)?;
        let mut worst = Duration::ZERO;
        for g in dests {
            let first = self.first_delivery_in_group(m, *g)?;
            worst = worst.max(first.checked_sub(start)?);
        }
        Some(worst)
    }

    /// Whether `m` was partially delivered: delivered by at least one process
    /// in each of its destination groups.
    pub fn is_partially_delivered(&self, m: MsgId) -> bool {
        match self.destinations.get(&m) {
            None => false,
            Some(dests) => dests
                .iter()
                .all(|g| self.first_delivery_in_group(m, *g).is_some()),
        }
    }

    /// The time at which `m` became partially delivered, if it did.
    pub fn partial_delivery_time(&self, m: MsgId) -> Option<Duration> {
        let dests = self.destinations.get(&m)?;
        let mut t = Duration::ZERO;
        for g in dests {
            t = t.max(self.first_delivery_in_group(m, *g)?);
        }
        Some(t)
    }

    /// Latency statistics over all partially delivered messages.
    pub fn latency_stats(&self) -> LatencyStats {
        let samples: Vec<Duration> = self
            .multicast_times
            .keys()
            .filter_map(|m| self.latency(*m))
            .collect();
        LatencyStats::from_samples(samples)
    }

    /// Latency statistics restricted to messages multicast within a window
    /// (useful to drop warm-up and cool-down phases of a run).
    pub fn latency_stats_in_window(&self, from: Duration, to: Duration) -> LatencyStats {
        let samples: Vec<Duration> = self
            .multicast_times
            .iter()
            .filter(|(_, t)| **t >= from && **t < to)
            .filter_map(|(m, _)| self.latency(*m))
            .collect();
        LatencyStats::from_samples(samples)
    }

    /// Throughput over the given measurement window: partially delivered
    /// messages whose *partial delivery* completed within the window, divided
    /// by the window length.
    pub fn throughput_in_window(&self, from: Duration, to: Duration) -> ThroughputStats {
        let delivered = self
            .multicast_times
            .keys()
            .filter_map(|m| self.partial_delivery_time(*m))
            .filter(|t| *t >= from && *t < to)
            .count();
        let duration = to.saturating_sub(from);
        let secs = duration.as_secs_f64();
        ThroughputStats {
            delivered_messages: delivered,
            duration,
            messages_per_second: if secs > 0.0 {
                delivered as f64 / secs
            } else {
                0.0
            },
        }
    }

    /// The sequence of message identifiers delivered by a given process, in
    /// delivery order. Used by the ordering-property checkers.
    pub fn delivery_order_at(&self, p: ProcessId) -> Vec<MsgId> {
        self.deliveries
            .iter()
            .filter(|d| d.process == p)
            .map(|d| d.msg_id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(seq: u64) -> MsgId {
        MsgId::new(ProcessId(99), seq)
    }

    fn record(time_ms: u64, p: u32, g: u32, m: MsgId) -> DeliveryRecord {
        DeliveryRecord {
            time: Duration::from_millis(time_ms),
            process: ProcessId(p),
            group: Some(GroupId(g)),
            msg_id: m,
            global_ts: None,
        }
    }

    fn sample_view() -> MetricsView {
        let deliveries = vec![
            record(10, 0, 0, mid(1)),
            record(12, 3, 1, mid(1)),
            record(14, 1, 0, mid(1)),
            record(30, 0, 0, mid(2)),
        ];
        let mut multicast_times = BTreeMap::new();
        multicast_times.insert(mid(1), Duration::from_millis(4));
        multicast_times.insert(mid(2), Duration::from_millis(20));
        multicast_times.insert(mid(3), Duration::from_millis(25));
        let mut destinations = BTreeMap::new();
        destinations.insert(mid(1), vec![GroupId(0), GroupId(1)]);
        destinations.insert(mid(2), vec![GroupId(0)]);
        destinations.insert(mid(3), vec![GroupId(0), GroupId(1)]);
        MetricsView::new(deliveries, multicast_times, destinations)
    }

    #[test]
    fn latency_uses_first_delivery_per_group() {
        let v = sample_view();
        assert_eq!(
            v.first_delivery_in_group(mid(1), GroupId(0)),
            Some(Duration::from_millis(10))
        );
        // Worst over both groups: group 1 delivered at 12, multicast at 4 → 8 ms.
        assert_eq!(v.latency(mid(1)), Some(Duration::from_millis(8)));
    }

    #[test]
    fn partial_delivery_detection() {
        let v = sample_view();
        assert!(v.is_partially_delivered(mid(1)));
        assert!(v.is_partially_delivered(mid(2)));
        // mid(3) addressed to both groups but never delivered.
        assert!(!v.is_partially_delivered(mid(3)));
        assert_eq!(v.latency(mid(3)), None);
        assert_eq!(
            v.partial_delivery_time(mid(1)),
            Some(Duration::from_millis(12))
        );
    }

    #[test]
    fn latency_stats_aggregates() {
        let v = sample_view();
        let stats = v.latency_stats();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.min, Duration::from_millis(8));
        assert_eq!(stats.max, Duration::from_millis(10));
        assert_eq!(stats.mean, Duration::from_millis(9));
    }

    #[test]
    fn latency_stats_window_filters_by_multicast_time() {
        let v = sample_view();
        let stats = v.latency_stats_in_window(Duration::ZERO, Duration::from_millis(10));
        assert_eq!(stats.count, 1);
        assert_eq!(stats.max, Duration::from_millis(8));
    }

    #[test]
    fn throughput_counts_partial_deliveries_in_window() {
        let v = sample_view();
        let t = v.throughput_in_window(Duration::ZERO, Duration::from_secs(1));
        assert_eq!(t.delivered_messages, 2);
        assert!((t.messages_per_second - 2.0).abs() < 1e-9);
        let t2 = v.throughput_in_window(Duration::from_millis(20), Duration::from_secs(1));
        assert_eq!(t2.delivered_messages, 1);
    }

    #[test]
    fn delivery_order_per_process() {
        let v = sample_view();
        assert_eq!(v.delivery_order_at(ProcessId(0)), vec![mid(1), mid(2)]);
        assert_eq!(v.delivery_order_at(ProcessId(3)), vec![mid(1)]);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let stats = LatencyStats::from_samples(Vec::new());
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean, Duration::ZERO);
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let stats = LatencyStats::from_samples(samples);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, Duration::from_millis(51));
        assert_eq!(stats.p95, Duration::from_millis(95));
        assert_eq!(stats.p99, Duration::from_millis(99));
        assert_eq!(stats.max, Duration::from_millis(100));
        assert_eq!(stats.min, Duration::from_millis(1));
    }
}
