//! The four workloads and their seeded message generator.
//!
//! `--seed` drives destination choice and payload bytes; the program under
//! test only ever sees the generated messages.

use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload, ProcessId};

/// Which groups a generated multicast is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestMix {
    /// Every message goes to `{g0}`.
    SingleGroup,
    /// 30 % `{g0}`, 30 % `{g1}`, 40 % `{g0,g1}`.
    Conflict,
}

/// One benchmark workload: a closed loop of one client keeping `window`
/// multicasts in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name used in `BENCHMARK.json` and on the command line.
    pub name: &'static str,
    /// Groups deployed (3 `wbamd` replicas each).
    pub groups: usize,
    /// Multicasts kept in flight.
    pub window: usize,
    /// Payload bytes per multicast.
    pub payload: usize,
    /// Destination choice.
    pub mix: DestMix,
    /// Multicasts completed during set-up before the measured window opens.
    /// A fixed count, so set-up time is a few seconds on every workload and
    /// spawn jitter is a small share of it.
    pub warmup: u64,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "idle_1g",
        groups: 1,
        window: 1,
        payload: 20,
        mix: DestMix::SingleGroup,
        warmup: 2_500,
    },
    Workload {
        name: "pipelined_1g",
        groups: 1,
        window: 64,
        payload: 20,
        mix: DestMix::SingleGroup,
        warmup: 15_000,
    },
    Workload {
        name: "payload_4k_1g",
        groups: 1,
        window: 16,
        payload: 4096,
        mix: DestMix::SingleGroup,
        warmup: 4_500,
    },
    Workload {
        name: "conflict_2g",
        groups: 2,
        window: 16,
        payload: 20,
        mix: DestMix::Conflict,
        warmup: 6_000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// splitmix64: the benchmark's own generator, so its inputs do not change
/// when a shim under `compat/` does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Size of the seeded byte pool payloads are cut from.
const POOL_BYTES: usize = 1 << 16;

/// Seeded source of the multicasts one client submits.
pub struct Generator {
    client: ProcessId,
    mix: DestMix,
    payload: usize,
    rng: SplitMix64,
    pool: Vec<u8>,
    next_seq: u64,
}

impl Generator {
    /// A generator for `workload` whose message ids start at `first_seq`
    /// (successive phases of one client keep ids unique that way).
    pub fn new(workload: &Workload, client: ProcessId, seed: u64, first_seq: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut pool = Vec::with_capacity(POOL_BYTES + workload.payload);
        while pool.len() < POOL_BYTES + workload.payload {
            pool.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Generator {
            client,
            mix: workload.mix,
            payload: workload.payload,
            rng,
            pool,
            next_seq: first_seq,
        }
    }

    fn next_dest(&mut self) -> Destination {
        match self.mix {
            DestMix::SingleGroup => Destination::single(GroupId(0)),
            DestMix::Conflict => match self.rng.next_u64() % 10 {
                0..=2 => Destination::single(GroupId(0)),
                3..=5 => Destination::single(GroupId(1)),
                _ => Destination::new([GroupId(0), GroupId(1)]).expect("two groups"),
            },
        }
    }

    /// The next multicast: seeded destination, payload bytes cut from the
    /// seeded pool at a seeded offset.
    pub fn next_message(&mut self) -> AppMessage {
        let dest = self.next_dest();
        let offset = (self.rng.next_u64() % POOL_BYTES as u64) as usize;
        let payload = Payload::from(self.pool[offset..offset + self.payload].to_vec());
        let id = MsgId::new(self.client, self.next_seq);
        self.next_seq += 1;
        AppMessage::new(id, dest, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn conflict_mix_hits_30_30_40_and_repeats_for_equal_seeds() {
        let workload = by_name("conflict_2g").unwrap();
        let draws = 100_000;
        let tally = |seed: u64| -> ([u64; 3], Vec<AppMessage>) {
            let mut gen = Generator::new(&workload, ProcessId(6), seed, 0);
            let mut counts = [0u64; 3];
            let mut head = Vec::new();
            for i in 0..draws {
                let msg = gen.next_message();
                let class = match msg.dest.groups() {
                    [GroupId(0)] => 0,
                    [GroupId(1)] => 1,
                    [GroupId(0), GroupId(1)] => 2,
                    other => panic!("unexpected destination {other:?}"),
                };
                counts[class] += 1;
                if i < 64 {
                    head.push(msg);
                }
            }
            (counts, head)
        };
        let (counts, head) = tally(42);
        for (class, expected) in [(0, 0.30), (1, 0.30), (2, 0.40)] {
            let share = counts[class] as f64 / draws as f64;
            assert!(
                (share - expected).abs() < 0.01,
                "class {class}: share {share} vs {expected}"
            );
        }
        let (again, head_again) = tally(42);
        assert_eq!(counts, again);
        assert_eq!(head, head_again);
        let (_, other_head) = tally(43);
        assert_ne!(head, other_head);
    }

    #[test]
    fn payloads_have_the_workloads_size_and_seeded_bytes() {
        let workload = by_name("payload_4k_1g").unwrap();
        let mut a = Generator::new(&workload, ProcessId(3), 7, 100);
        let mut b = Generator::new(&workload, ProcessId(3), 7, 100);
        let first = a.next_message();
        assert_eq!(first.payload.len(), 4096);
        assert_eq!(first.id, MsgId::new(ProcessId(3), 100));
        assert_eq!(first.dest, Destination::single(GroupId(0)));
        assert_eq!(first, b.next_message());
        // Not a constant fill.
        assert!(first
            .payload
            .as_bytes()
            .iter()
            .any(|&x| x != first.payload.as_bytes()[0]));
        assert_eq!(a.next_message().id.seq, 101);
    }
}
