//! Single-message latency probes.
//!
//! These drive one (or two) carefully timed multicasts through a cluster with
//! a constant one-way delay δ and report delivery latencies in multiples of δ.
//! They regenerate the paper's analytical latency claims ("Table 1"), the
//! message-flow diagram of Figure 5 and the convoy-effect scenario of
//! Figure 2.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_types::GroupId;

use crate::cluster::{ClusterSpec, Protocol, ProtocolSim};

/// Result of a single-message latency probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyProbeResult {
    /// The protocol probed.
    pub protocol: String,
    /// The configured one-way delay δ.
    pub delta: Duration,
    /// Worst-case first-delivery latency over all destination groups.
    pub latency: Duration,
    /// The same latency expressed in multiples of δ.
    pub delta_multiples: f64,
}

/// Measures the collision-free delivery latency of a single multicast to
/// `dest_groups` groups under a constant one-way delay `delta`.
///
/// For the white-box protocol the expected result is 3δ (the first delivery in
/// each group happens at its leader); for FastCast 4δ; for fault-tolerant
/// Skeen 6δ; for plain Skeen (singleton groups) 2δ.
pub fn latency_probe(
    protocol: Protocol,
    dest_groups: usize,
    delta: Duration,
) -> LatencyProbeResult {
    let group_size = if protocol == Protocol::Skeen { 1 } else { 3 };
    let spec = ClusterSpec::constant_delta(dest_groups.max(2), group_size, delta);
    let mut sim = ProtocolSim::build(protocol, &spec);
    let dest: Vec<GroupId> = (0..dest_groups as u32).map(GroupId).collect();
    let id = sim.submit(Duration::ZERO, 0, &dest, 20);
    sim.run_until_quiescent(Duration::from_secs(600));
    let latency = sim
        .metrics()
        .latency(id)
        .expect("probe message must be delivered");
    LatencyProbeResult {
        protocol: protocol.label().to_string(),
        delta,
        latency,
        delta_multiples: latency.as_secs_f64() / delta.as_secs_f64(),
    }
}

/// Reproduces the convoy-effect scenario of Figure 2 for a given protocol.
///
/// The schedule has three phases:
///
/// 1. Group 1's logical clock is primed with a few messages addressed to it
///    alone, so that a subsequent conflicting message gets a *high* global
///    timestamp (as in Figure 2, where the second group's proposal dominates).
/// 2. The probed message `m` is multicast to groups 0 and 1; its global
///    timestamp is therefore dictated by group 1's (high) clock.
/// 3. A conflicting message `m'` is multicast so that it reaches group 0's
///    leader just *before* that leader advances its clock past `m`'s global
///    timestamp. `m'` then receives a local timestamp below `GlobalTS[m]` and
///    blocks the delivery of `m` until `m'` itself commits.
///
/// The returned latency of `m` therefore approximates the protocol's
/// failure-free latency: collision-free latency plus the protocol's "clock
/// lag" C (paper §V, equation (4)). Protocols that advance their clocks
/// speculatively (the white-box protocol, C = 2δ) suffer far less than those
/// that only advance them after their second consensus (FastCast C = 4δ,
/// fault-tolerant Skeen C = 6δ).
pub fn convoy_probe(protocol: Protocol, delta: Duration) -> LatencyProbeResult {
    let group_size = if protocol == Protocol::Skeen { 1 } else { 3 };
    let spec = ClusterSpec {
        num_clients: 2,
        ..ClusterSpec::constant_delta(2, group_size, delta)
    };
    let mut sim = ProtocolSim::build(protocol, &spec);
    let dest = [GroupId(0), GroupId(1)];
    // Phase 1: prime group 1's clock.
    for _ in 0..4 {
        sim.submit(Duration::ZERO, 1, &[GroupId(1)], 20);
    }
    // Start long after the priming traffic has quiesced.
    let start = delta * 40;
    // Phase 2: the probed message.
    let m = sim.submit(start, 0, &dest, 20);
    // Phase 3: the conflicting message, timed to arrive at group 0's leader
    // just before that leader's clock passes GlobalTS[m]. The clock-advance
    // point (in message delays after multicast(m)) is protocol specific.
    let clock_advance_delays = match protocol {
        Protocol::Skeen => 2,    // on commit
        Protocol::WhiteBox => 2, // speculative, on receiving the full ACCEPT set
        Protocol::FastCast => 4, // after the second consensus
        Protocol::FtSkeen => 6,  // after the second consensus
    };
    let epsilon = Duration::from_micros(50);
    let t_prime = start + delta * (clock_advance_delays - 1) - epsilon;
    sim.submit(t_prime, 1, &dest, 20);
    sim.run_until_quiescent(Duration::from_secs(600));
    let latency = sim
        .metrics()
        .latency(m)
        .expect("probe message must be delivered");
    LatencyProbeResult {
        protocol: protocol.label().to_string(),
        delta,
        latency,
        delta_multiples: latency.as_secs_f64() / delta.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELTA: Duration = Duration::from_millis(10);

    fn close_to(multiples: f64, expected: f64) -> bool {
        (multiples - expected).abs() < 0.35
    }

    #[test]
    fn whitebox_collision_free_latency_is_three_delta() {
        let r = latency_probe(Protocol::WhiteBox, 2, DELTA);
        assert!(
            close_to(r.delta_multiples, 3.0),
            "expected ~3δ, measured {:.2}δ",
            r.delta_multiples
        );
    }

    #[test]
    fn fastcast_collision_free_latency_is_four_delta() {
        let r = latency_probe(Protocol::FastCast, 2, DELTA);
        assert!(
            close_to(r.delta_multiples, 4.0),
            "expected ~4δ, measured {:.2}δ",
            r.delta_multiples
        );
    }

    #[test]
    fn ftskeen_collision_free_latency_is_six_delta() {
        let r = latency_probe(Protocol::FtSkeen, 2, DELTA);
        assert!(
            close_to(r.delta_multiples, 6.0),
            "expected ~6δ, measured {:.2}δ",
            r.delta_multiples
        );
    }

    #[test]
    fn plain_skeen_collision_free_latency_is_two_delta() {
        let r = latency_probe(Protocol::Skeen, 2, DELTA);
        assert!(
            close_to(r.delta_multiples, 2.0),
            "expected ~2δ, measured {:.2}δ",
            r.delta_multiples
        );
    }

    #[test]
    fn convoy_increases_skeen_latency_towards_four_delta() {
        let collision_free = latency_probe(Protocol::Skeen, 2, DELTA).delta_multiples;
        let convoy = convoy_probe(Protocol::Skeen, DELTA).delta_multiples;
        assert!(
            convoy > collision_free + 0.5,
            "convoy ({convoy:.2}δ) should exceed collision-free ({collision_free:.2}δ)"
        );
        assert!(
            convoy <= 4.2,
            "Skeen's failure-free latency is bounded by 4δ"
        );
    }

    #[test]
    fn convoy_penalty_is_smaller_for_whitebox_than_for_baselines() {
        let wb = convoy_probe(Protocol::WhiteBox, DELTA).delta_multiples;
        let fc = convoy_probe(Protocol::FastCast, DELTA).delta_multiples;
        let fts = convoy_probe(Protocol::FtSkeen, DELTA).delta_multiples;
        assert!(
            wb <= 5.2,
            "white-box failure-free latency must stay ≤ 5δ, got {wb:.2}δ"
        );
        assert!(
            wb < fc && fc < fts,
            "expected WbCast < FastCast < FT-Skeen under collisions, got {wb:.2} / {fc:.2} / {fts:.2}"
        );
    }

    /// Table 1 as `table1_latency` prints it, to two decimals. The tests
    /// above accept ±0.35δ, which would hide a delivery-rule change that
    /// moves a convoy value by a third of a delay; this one hides nothing.
    #[test]
    fn table1_values_are_pinned_exactly() {
        let rows = [
            (Protocol::Skeen, "2.00", "3.00"),
            (Protocol::WhiteBox, "3.00", "3.99"),
            (Protocol::FastCast, "4.00", "7.00"),
            (Protocol::FtSkeen, "6.00", "11.00"),
        ];
        for (protocol, collision_free, convoy) in rows {
            let cf = latency_probe(protocol, 2, DELTA).delta_multiples;
            let ff = convoy_probe(protocol, DELTA).delta_multiples;
            assert_eq!(
                (format!("{cf:.2}"), format!("{ff:.2}")),
                (collision_free.to_string(), convoy.to_string()),
                "{} (collision-free, convoy)",
                protocol.label()
            );
        }
    }
}
