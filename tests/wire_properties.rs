//! Property tests of the wire framing (`wbam_types::wire`) over *every*
//! protocol message type the TCP runtime carries: each `WhiteBoxMsg`,
//! `BaselineMsg` and `PaxosMsg` variant — including the
//! checkpoint-bearing `NEW_STATE` and `STATE_TRANSFER` — must survive
//! framing byte-for-byte under **both wire codecs** (compact binary, the
//! deployed codec, and JSON, the reference body the benchmark times), both
//! as a single frame and as concatenated frames fed to the decoder at
//! randomized split points (the way a TCP reader actually sees them). The
//! preamble handshake that keeps mixed-codec clusters from ever exchanging
//! frames is regression-tested below that.
//!
//! The last section pins the binary codec's positional rules (WIRE.md §5):
//! every variant decodes under both codecs to the value it was encoded
//! from, §5.4 packing follows the values, a struct sequence may be short or
//! long, variants are bounded in range and depth, and hostile input is
//! refused — or accepted as a value that re-encodes to itself — without a
//! panic and within an allocation budget.

mod common;

use std::collections::BTreeMap;

use bytes::BytesMut;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use wbam_baselines::{BaselineMsg, Command};
use wbam_consensus::{PaxosMsg, Slot};
use wbam_core::{BallotVector, DeliverMsg, RecordSnapshot, StateSnapshot, WhiteBoxMsg};
use wbam_harness::{DeliveryLine, DeploySpec};
use wbam_types::wire::{
    check_preamble, decode_frame_with, encode_frame_with, encode_preamble, from_json, to_json,
    WireCodec,
};
use wbam_types::{
    AppMessage, Ballot, Checkpoint, DeliveredFilter, Destination, GroupId, MsgId, Payload, Phase,
    ProcessId, Timestamp,
};

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

// --- random builders -------------------------------------------------------

fn arb_msg_id(rng: &mut StdRng) -> MsgId {
    MsgId::new(ProcessId(rng.gen_range(0..32)), rng.gen_range(0..10_000))
}

fn arb_timestamp(rng: &mut StdRng) -> Timestamp {
    if rng.gen_bool(0.1) {
        Timestamp::BOTTOM
    } else {
        Timestamp::new(rng.gen_range(0..100_000), GroupId(rng.gen_range(0..8)))
    }
}

fn arb_ballot(rng: &mut StdRng) -> Ballot {
    if rng.gen_bool(0.1) {
        Ballot::BOTTOM
    } else {
        Ballot::new(rng.gen_range(0..64), ProcessId(rng.gen_range(0..32)))
    }
}

/// A `DELIVER`'s message in either form: whole, or by reference.
fn arb_deliver_msg(rng: &mut StdRng) -> DeliverMsg {
    if rng.gen_bool(0.5) {
        DeliverMsg::Full(arb_app_message(rng))
    } else {
        DeliverMsg::Ref(arb_msg_id(rng))
    }
}

fn arb_app_message(rng: &mut StdRng) -> AppMessage {
    let num_dest = rng.gen_range(1..=3);
    let mut dest: Vec<GroupId> = Vec::new();
    while dest.len() < num_dest {
        let g = GroupId(rng.gen_range(0..8));
        if !dest.contains(&g) {
            dest.push(g);
        }
    }
    let payload: Vec<u8> = (0..rng.gen_range(0..64))
        .map(|_| rng.gen_range(0..=255) as u8)
        .collect();
    AppMessage::new(
        arb_msg_id(rng),
        Destination::new(dest).expect("non-empty destination"),
        Payload::from(payload),
    )
}

fn arb_ballot_vector(rng: &mut StdRng) -> BallotVector {
    (0..rng.gen_range(1..4))
        .map(|_| (GroupId(rng.gen_range(0..8)), arb_ballot(rng)))
        .collect()
}

fn arb_watermarks(rng: &mut StdRng) -> BTreeMap<GroupId, Timestamp> {
    (0..rng.gen_range(0..4))
        .map(|_| (GroupId(rng.gen_range(0..8)), arb_timestamp(rng)))
        .collect()
}

fn arb_phase(rng: &mut StdRng) -> Phase {
    match rng.gen_range(0..4) {
        0 => Phase::Start,
        1 => Phase::Proposed,
        2 => Phase::Accepted,
        _ => Phase::Committed,
    }
}

fn arb_snapshot(rng: &mut StdRng) -> StateSnapshot {
    let mut snapshot = StateSnapshot::new();
    for _ in 0..rng.gen_range(0..4) {
        let msg = arb_app_message(rng);
        snapshot.records.insert(
            msg.id,
            RecordSnapshot {
                msg: msg.clone(),
                phase: arb_phase(rng),
                local_ts: arb_timestamp(rng),
                global_ts: arb_timestamp(rng),
            },
        );
    }
    snapshot
}

fn arb_checkpoint(rng: &mut StdRng) -> Checkpoint {
    let mut dedup = DeliveredFilter::new();
    for _ in 0..rng.gen_range(0..16) {
        dedup.insert(arb_msg_id(rng));
    }
    Checkpoint {
        group: GroupId(rng.gen_range(0..8)),
        ballot: arb_ballot(rng),
        clock: rng.gen_range(0..100_000),
        watermarks: arb_watermarks(rng),
        max_delivered_gts: arb_timestamp(rng),
        delivered_count: rng.gen_range(0..100_000),
        dedup,
        app_state: (0..rng.gen_range(0..32))
            .map(|_| rng.gen_range(0..=255) as u8)
            .collect(),
    }
}

fn arb_command(rng: &mut StdRng) -> Command {
    if rng.gen_bool(0.5) {
        Command::AssignLocal {
            msg: arb_app_message(rng),
            local_ts: arb_timestamp(rng),
        }
    } else {
        Command::CommitGlobal {
            msg_id: arb_msg_id(rng),
            global_ts: arb_timestamp(rng),
        }
    }
}

/// One random instance of the white-box wire variant with index `variant`
/// (0..13 covers the whole enum).
fn arb_whitebox(rng: &mut StdRng, variant: usize) -> WhiteBoxMsg {
    match variant {
        0 => WhiteBoxMsg::Multicast {
            msg: arb_app_message(rng),
        },
        1 => WhiteBoxMsg::Accept {
            msg: arb_app_message(rng),
            group: GroupId(rng.gen_range(0..8)),
            ballot: arb_ballot(rng),
            local_ts: arb_timestamp(rng),
        },
        2 => WhiteBoxMsg::AcceptAck {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
            ballots: arb_ballot_vector(rng),
        },
        3 => WhiteBoxMsg::Deliver {
            msg: arb_deliver_msg(rng),
            ballot: arb_ballot(rng),
            local_ts: arb_timestamp(rng),
            global_ts: arb_timestamp(rng),
        },
        4 => WhiteBoxMsg::NewLeader {
            ballot: arb_ballot(rng),
        },
        5 => WhiteBoxMsg::NewLeaderAck {
            ballot: arb_ballot(rng),
            cballot: arb_ballot(rng),
            checkpoint: Box::new(arb_checkpoint(rng)),
            snapshot: arb_snapshot(rng),
        },
        6 => WhiteBoxMsg::NewState {
            ballot: arb_ballot(rng),
            checkpoint: Box::new(arb_checkpoint(rng)),
            snapshot: arb_snapshot(rng),
        },
        7 => WhiteBoxMsg::NewStateAck {
            ballot: arb_ballot(rng),
        },
        8 => WhiteBoxMsg::Heartbeat {
            ballot: arb_ballot(rng),
        },
        9 => WhiteBoxMsg::StableReport {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
        },
        10 => WhiteBoxMsg::StableAdvance {
            watermarks: arb_watermarks(rng),
        },
        11 => WhiteBoxMsg::StablePruned {
            msg_id: arb_msg_id(rng),
            watermarks: arb_watermarks(rng),
        },
        _ => WhiteBoxMsg::ClientReply {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
            global_ts: arb_timestamp(rng),
        },
    }
}

const WHITEBOX_VARIANTS: usize = 13;

/// One random instance of the Paxos wire variant with index `variant`
/// (0..5 covers the whole enum).
fn arb_paxos(rng: &mut StdRng, variant: usize) -> PaxosMsg<Command> {
    match variant {
        0 => PaxosMsg::Prepare {
            ballot: arb_ballot(rng),
        },
        1 => PaxosMsg::Promise {
            ballot: arb_ballot(rng),
            accepted: (0..rng.gen_range(0..4))
                .map(|_| {
                    (
                        rng.gen_range(0..1000) as Slot,
                        (arb_ballot(rng), arb_command(rng)),
                    )
                })
                .collect(),
        },
        2 => PaxosMsg::Accept {
            ballot: arb_ballot(rng),
            slot: rng.gen_range(0..1000),
            cmd: arb_command(rng),
        },
        3 => PaxosMsg::Accepted {
            ballot: arb_ballot(rng),
            slot: rng.gen_range(0..1000),
        },
        _ => PaxosMsg::Chosen {
            slot: rng.gen_range(0..1000),
            cmd: arb_command(rng),
        },
    }
}

const PAXOS_VARIANTS: usize = 5;

/// One random instance of the baseline wire variant with index `variant`
/// (0..10 covers the whole enum; the `Paxos` variant nests a random
/// `PaxosMsg` variant).
fn arb_baseline(rng: &mut StdRng, variant: usize) -> BaselineMsg {
    match variant {
        0 => BaselineMsg::Multicast {
            msg: arb_app_message(rng),
        },
        1 => BaselineMsg::Propose {
            msg: arb_app_message(rng),
            group: GroupId(rng.gen_range(0..8)),
            local_ts: arb_timestamp(rng),
        },
        2 => BaselineMsg::Confirm {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
        },
        3 => BaselineMsg::Deliver {
            msg_id: arb_msg_id(rng),
            global_ts: arb_timestamp(rng),
        },
        4 => {
            let inner = rng.gen_range(0..PAXOS_VARIANTS);
            BaselineMsg::Paxos(arb_paxos(rng, inner))
        }
        5 => BaselineMsg::StableReport {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
        },
        6 => BaselineMsg::StableAdvance {
            watermarks: arb_watermarks(rng),
        },
        7 => BaselineMsg::CatchupRequest {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
            next_slot: rng.gen_range(0..1000),
        },
        8 => BaselineMsg::StateTransfer {
            checkpoint: arb_checkpoint(rng),
            frontier: rng.gen_range(0..1000),
            log: (0..rng.gen_range(0..5))
                .map(|_| (rng.gen_range(0..1000) as Slot, arb_command(rng)))
                .collect(),
        },
        _ => BaselineMsg::ClientReply {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
            global_ts: arb_timestamp(rng),
        },
    }
}

const BASELINE_VARIANTS: usize = 10;

// --- helpers ---------------------------------------------------------------

/// Both codecs `wbam_types::wire` serves (the deployed binary one and the
/// JSON reference body the benchmark times); every round-trip property
/// below holds for each.
const CODECS: [WireCodec; 2] = [WireCodec::Binary, WireCodec::Json];

fn round_trip_one<M>(msg: &M)
where
    M: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    for codec in CODECS {
        let frame = encode_frame_with(codec, msg).expect("encode");
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&frame);
        let back: M = decode_frame_with(codec, &mut buf)
            .unwrap_or_else(|e| panic!("{codec} decode: {e}"))
            .expect("full frame");
        assert_eq!(&back, msg);
        assert!(buf.is_empty(), "decoder left {} bytes behind", buf.len());
    }
}

/// Concatenates the frames of `msgs` into one byte stream, feeds the stream
/// to the decoder in chunks whose sizes are drawn from `rng` (1 byte up to
/// past-the-end), and asserts the decoded sequence equals the input. This is
/// exactly the shape of data a TCP reader sees: frames split and coalesced
/// arbitrarily by the stream.
fn round_trip_stream<M>(msgs: &[M], rng: &mut StdRng)
where
    M: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    for codec in CODECS {
        let mut stream = Vec::new();
        for m in msgs {
            stream.extend_from_slice(&encode_frame_with(codec, m).expect("encode"));
        }
        let mut buf = BytesMut::new();
        let mut decoded: Vec<M> = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let chunk = rng.gen_range(1..=64.min(stream.len() - offset).max(1));
            let chunk = chunk.min(stream.len() - offset);
            buf.extend_from_slice(&stream[offset..offset + chunk]);
            offset += chunk;
            while let Some(msg) =
                decode_frame_with::<M>(codec, &mut buf).unwrap_or_else(|e| panic!("{codec}: {e}"))
            {
                decoded.push(msg);
            }
        }
        assert_eq!(decoded.len(), msgs.len());
        for (got, want) in decoded.iter().zip(msgs) {
            assert_eq!(got, want);
        }
        assert!(buf.is_empty());
    }
}

// --- properties ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every white-box variant round-trips through a single frame.
    #[test]
    fn whitebox_variants_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..WHITEBOX_VARIANTS {
            round_trip_one(&arb_whitebox(&mut rng, variant));
        }
    }

    /// Every baseline variant (including nested Paxos messages and
    /// STATE_TRANSFER) round-trips through a single frame.
    #[test]
    fn baseline_variants_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..BASELINE_VARIANTS {
            round_trip_one(&arb_baseline(&mut rng, variant));
        }
    }

    /// Every consensus variant round-trips through a single frame.
    #[test]
    fn paxos_variants_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..PAXOS_VARIANTS {
            round_trip_one(&arb_paxos(&mut rng, variant));
        }
    }

    /// A concatenated stream of random white-box frames decodes identically
    /// no matter where the stream is split.
    #[test]
    fn whitebox_streams_survive_random_split_points(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<_> = (0..rng.gen_range(2..12))
            .map(|_| {
                let variant = rng.gen_range(0..WHITEBOX_VARIANTS);
                arb_whitebox(&mut rng, variant)
            })
            .collect();
        round_trip_stream(&msgs, &mut rng);
    }

    /// Same for baseline frames.
    #[test]
    fn baseline_streams_survive_random_split_points(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<_> = (0..rng.gen_range(2..12))
            .map(|_| {
                let variant = rng.gen_range(0..BASELINE_VARIANTS);
                arb_baseline(&mut rng, variant)
            })
            .collect();
        round_trip_stream(&msgs, &mut rng);
    }
}

/// Deterministic sanity check that the generators really cover every variant
/// tag (so a future enum addition fails loudly here instead of silently
/// shrinking coverage).
#[test]
fn generators_cover_every_whitebox_kind() {
    let mut rng = StdRng::seed_from_u64(7);
    let kinds: std::collections::BTreeSet<&'static str> = (0..WHITEBOX_VARIANTS)
        .map(|v| arb_whitebox(&mut rng, v).kind())
        .collect();
    assert_eq!(kinds.len(), WHITEBOX_VARIANTS);
    for expected in [
        "MULTICAST",
        "ACCEPT",
        "ACCEPT_ACK",
        "DELIVER",
        "NEWLEADER",
        "NEWLEADER_ACK",
        "NEW_STATE",
        "NEWSTATE_ACK",
        "HEARTBEAT",
        "STABLE_REPORT",
        "STABLE_ADVANCE",
        "STABLE_PRUNED",
        "CLIENT_REPLY",
    ] {
        assert!(kinds.contains(expected), "generator misses {expected}");
    }
}

/// Regression: a JSON peer and a binary peer must fail the *handshake*, not
/// limp along exchanging frames. The 4-byte preamble disagrees in exactly the
/// codec byte, `check_preamble` names both codecs in its error, and — the
/// belt-and-braces layer behind the preamble — a frame encoded with one codec
/// never decodes as a frame of the other.
#[test]
fn json_and_binary_handshakes_reject_each_other() {
    let json = encode_preamble(WireCodec::Json);
    let binary = encode_preamble(WireCodec::Binary);
    assert_ne!(json, binary, "preambles must differ in the codec byte");
    assert_eq!(json[..3], binary[..3], "magic and version must agree");

    // Same-codec handshakes succeed, cross-codec ones fail with an error
    // naming both sides' codecs.
    check_preamble(&json, WireCodec::Json).expect("json peers agree");
    check_preamble(&binary, WireCodec::Binary).expect("binary peers agree");
    for (theirs, ours) in [(json, WireCodec::Binary), (binary, WireCodec::Json)] {
        let err = check_preamble(&theirs, ours).expect_err("mixed codecs must be rejected");
        let text = err.to_string();
        assert!(
            text.contains("binary") && text.contains("json"),
            "error must name both codecs: {text}"
        );
    }
    // A process of the release before the schema-directed binary codec
    // sends codec byte 2; both codecs of this release refuse it by name.
    assert_eq!(binary[3], 3, "the schema-directed binary codec is byte 3");
    let retired = [json[0], json[1], json[2], 2];
    for ours in CODECS {
        let text = check_preamble(&retired, ours)
            .expect_err("the retired binary codec must be rejected")
            .to_string();
        assert!(
            text.contains("retired self-describing binary codec"),
            "error must name the retired codec: {text}"
        );
    }

    // Frames of one codec are garbage to the other even if the preamble
    // check were bypassed: decoding fails instead of yielding a bogus value.
    let mut rng = StdRng::seed_from_u64(42);
    for variant in 0..WHITEBOX_VARIANTS {
        let msg = arb_whitebox(&mut rng, variant);
        for (enc, dec) in [
            (WireCodec::Binary, WireCodec::Json),
            (WireCodec::Json, WireCodec::Binary),
        ] {
            let frame = encode_frame_with(enc, &msg).expect("encode");
            let mut buf = BytesMut::new();
            buf.extend_from_slice(&frame);
            let result = decode_frame_with::<WhiteBoxMsg>(dec, &mut buf);
            assert!(
                !matches!(&result, Ok(Some(m)) if m == &msg),
                "{enc} frame of variant {variant} decoded identically under {dec}"
            );
        }
    }
}

// --- the binary codec's positional rules ------------------------------------

/// `value` survives both codecs, the two decodes agree, and the binary
/// encoding is canonical: re-encoding what was decoded gives the same bytes.
fn assert_codecs_agree<T>(value: &T)
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let bytes = serde_binary::to_vec(value).expect("binary encode");
    let from_binary: T = serde_binary::from_slice(&bytes).expect("binary decode");
    let from_json: T = from_json(&to_json(value).expect("json encode")).expect("json decode");
    assert_eq!(&from_binary, value);
    assert_eq!(from_binary, from_json, "the two codecs decode differently");
    assert_eq!(
        serde_binary::to_vec(&from_binary).expect("re-encode"),
        bytes
    );
}

fn app_message_with_payload(len: usize) -> AppMessage {
    AppMessage::new(
        MsgId::new(ProcessId(6), 300),
        Destination::new(vec![GroupId(0), GroupId(200)]).expect("non-empty destination"),
        Payload::from((0..len).map(|i| (i * 7) as u8).collect::<Vec<u8>>()),
    )
}

/// §5.4 packing is decided by the values, not the types: any non-empty
/// sequence of integers `<= 255` is `Bytes`, whatever Rust type it came
/// from — a struct of small integers included — and nothing else is.
#[test]
fn small_integer_sequences_and_payloads_round_trip_packed() {
    for ints in [
        vec![],
        vec![0],
        vec![127],
        vec![128],
        vec![255],
        vec![256],
        vec![1, 2, 300],
        vec![300, 1, 2],
        vec![0, 127, 128, 255],
        (0..=255).collect(),
        (0..=256).collect(),
    ] {
        assert_codecs_agree::<Vec<u64>>(&ints);
        let packed = !ints.is_empty() && ints.iter().all(|&n| n <= 255);
        let tag = serde_binary::to_vec(&ints).unwrap()[0];
        assert_eq!(tag, if packed { 0x09 } else { 0x07 }, "{ints:?}");
    }
    assert_eq!(
        serde_binary::to_vec(&MsgId::new(ProcessId(6), 200)).unwrap(),
        [0x09, 2, 6, 200]
    );
    assert_codecs_agree(&vec![-1i64, 1, 2]);
    assert_codecs_agree(&(200u8, 7u32));
    assert_codecs_agree(&(1u8, "x".to_string(), 2u8));
    assert_codecs_agree(&vec![(1u32, 2u32), (3, 400)]);
    assert_codecs_agree(&vec![vec![1u64, 2], vec![], vec![3, 1000]]);
    assert_codecs_agree(&vec![Some(1u8), None, Some(3)]);
    assert_codecs_agree(&vec![vec![vec![9u8; 3]; 2]; 2]);
    assert_codecs_agree(&BTreeMap::from([(1u8, 2u8), (3, 4)]));
    assert_codecs_agree(&BTreeMap::from([
        (GroupId(1), vec![0u8; 0]),
        (GroupId(2), vec![1]),
    ]));
    assert_codecs_agree(&vec![Phase::Start, Phase::Committed]);
    assert_codecs_agree(&std::time::Duration::new(3, 999_999_999));
    assert_codecs_agree(&(1.5f64, 'é', (), true));
    for len in [0, 1, 20, 4096] {
        assert_codecs_agree(&app_message_with_payload(len));
        assert_codecs_agree(&WhiteBoxMsg::Multicast {
            msg: app_message_with_payload(len),
        });
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Probe {
    a: u64,
    b: Option<u32>,
    c: Vec<u8>,
    d: (),
}

/// A struct arrives as the sequence of its fields in declaration order. A
/// short sequence reads the missing fields as `null` — `None` and `()` for
/// optional ones, an error naming the field for a required one — and
/// elements past the last field are skipped, though still validated. JSON
/// keeps the named rules: any order, unknown entries skipped, the first of
/// a repeated entry wins.
#[test]
fn struct_sequences_may_be_short_or_long() {
    let decode = serde_binary::from_slice::<Probe>;
    let probe = |a, c: Vec<u8>| Probe {
        a,
        b: None,
        c,
        d: (),
    };
    // All four fields; then a `Vec<u8>` arriving unpacked as a `Seq`.
    assert_eq!(
        decode(&[0x07, 4, 0x81, 0x00, 0x09, 2, 1, 0xFF, 0x00]).unwrap(),
        probe(1, vec![1, 255])
    );
    assert_eq!(
        decode(&[0x07, 3, 0x81, 0x00, 0x07, 2, 0x81, 0x03, 0xFF, 0x01]).unwrap(),
        probe(1, vec![1, 255])
    );
    // Short: `d` and then `b` may be absent, `c` and `a` may not.
    assert_eq!(
        decode(&[0x07, 3, 0x87, 0x81, 0x07, 0]).unwrap(),
        Probe {
            b: Some(1),
            ..probe(7, vec![])
        }
    );
    let err = decode(&[0x09, 1, 7]).unwrap_err().to_string();
    assert!(err.contains("field `c` of Probe"), "{err}");
    let err = decode(&[0x07, 0]).unwrap_err().to_string();
    assert!(err.contains("field `a` of Probe"), "{err}");
    // Long: trailing elements of any kind are skipped once validated.
    let long = [
        0x07, 7, 0x81, 0x00, 0x07, 0, 0x00, 0x06, 1, b'x', 0x41, 0x80, 0x07, 1, 0x0A, 0x80, 0x01,
        0x00,
    ];
    assert_eq!(decode(&long).unwrap(), probe(1, vec![]));
    for bad_extra in [&[0x06, 1, 0xFF][..], &[0x3F], &[0x41], &[0x07, 5, 0x81]] {
        let bytes = [&[0x07, 5, 0x81, 0x00, 0x07, 0, 0x00][..], bad_extra].concat();
        assert!(decode(&bytes).is_err(), "{bytes:?}");
    }
    // A required field of the wrong kind, an out-of-range byte.
    assert!(decode(&[0x07, 3, 0x06, 1, b'7', 0x00, 0x07, 0]).is_err());
    assert!(decode(&[0x07, 3, 0x81, 0x00, 0x07, 1, 0x03, 0x80, 0x02]).is_err());

    let json = r#"{"zz":[null,{"a":0.5}],"c":[1,255],"a":7,"a":9,"inner":true}"#;
    assert_eq!(from_json::<Probe>(json).unwrap(), probe(7, vec![1, 255]));
    assert!(from_json::<Probe>(r#"{"c":[]}"#).is_err());
}

/// A recursive enum whose variants nest without any sequence between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Chain {
    End,
    Link(Box<Chain>),
}

fn chain(links: usize) -> Chain {
    (0..links).fold(Chain::End, |inner, _| Chain::Link(Box::new(inner)))
}

/// A variant with data is one nesting level (WIRE.md §5.5), so a recursive
/// enum cannot exhaust the stack through variants alone, in a value the type
/// reads or in one it skips; and a variant index the enum does not have is
/// an error that names the enum.
#[test]
fn variants_are_bounded_in_depth_and_range() {
    // `n` links put the innermost `End` at depth `n`.
    let deepest = serde_binary::to_vec(&chain(128)).unwrap();
    assert_eq!(deepest, [[0x41].repeat(128), vec![0x80]].concat());
    assert_eq!(
        serde_binary::from_slice::<Chain>(&deepest).unwrap(),
        chain(128)
    );
    let too_deep = serde_binary::to_vec(&chain(129)).unwrap();
    let err = serde_binary::from_slice::<Chain>(&too_deep).unwrap_err();
    assert!(err.to_string().contains("maximum depth"), "{err}");
    // The same nest as a skipped trailing element of a `Duration` (which
    // opens one level itself).
    let skipped = |links| {
        [
            &[0x07, 3, 0x81, 0x82][..],
            &serde_binary::to_vec(&chain(links)).unwrap(),
        ]
        .concat()
    };
    assert!(serde_binary::from_slice::<std::time::Duration>(&skipped(127)).is_ok());
    assert!(serde_binary::from_slice::<std::time::Duration>(&skipped(128)).is_err());

    // `WhiteBoxMsg` has 13 variants: index 13 is refused, unit or with data,
    // in the one-byte form and in the varint form.
    for bytes in [&[0x4D, 0x00][..], &[0x8D], &[0x0A, 0x0D, 0x00]] {
        let err = serde_binary::from_slice::<WhiteBoxMsg>(bytes).unwrap_err();
        assert!(
            err.to_string().contains("enum WhiteBoxMsg"),
            "{bytes:?}: {err}"
        );
    }
    // A data variant sent bare, and a unit variant sent with data.
    assert!(serde_binary::from_slice::<WhiteBoxMsg>(&[0x87]).is_err());
    assert!(serde_binary::from_slice::<Chain>(&[0x40, 0x00]).is_err());
}

/// A destination read off the wire holds to `Destination::new`'s invariant:
/// an empty, unsorted or repeated group list is refused by both codecs, as a
/// bare destination and inside an application message, and a sorted one
/// (past the decoder's stack buffer too) still decodes.
#[test]
fn decoded_destinations_are_non_empty_sorted_and_distinct() {
    #[derive(Serialize)]
    struct RawAppMessage {
        id: MsgId,
        dest: Vec<GroupId>,
        payload: Payload,
    }
    let groups = |ids: &[u32]| ids.iter().map(|&g| GroupId(g)).collect::<Vec<_>>();
    for bad in [
        &[][..],
        &[1, 0],
        &[0, 0],
        &[0, 2, 2],
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 8],
    ] {
        let dest = groups(bad);
        let raw = RawAppMessage {
            id: MsgId::new(ProcessId(6), 1),
            dest: dest.clone(),
            payload: Payload::from("x"),
        };
        let binary = serde_binary::to_vec(&dest).unwrap();
        assert!(
            serde_binary::from_slice::<Destination>(&binary).is_err(),
            "{bad:?}"
        );
        assert!(
            from_json::<Destination>(&to_json(&dest).unwrap()).is_err(),
            "{bad:?}"
        );
        let binary = serde_binary::to_vec(&raw).unwrap();
        assert!(
            serde_binary::from_slice::<AppMessage>(&binary).is_err(),
            "{bad:?}"
        );
        assert!(
            from_json::<AppMessage>(&to_json(&raw).unwrap()).is_err(),
            "{bad:?}"
        );
    }
    for good in [&[3][..], &[0, 200], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]] {
        let dest = Destination::new(groups(good)).unwrap();
        assert_codecs_agree(&dest);
        assert_eq!(dest.groups(), groups(good));
    }
}

/// JSON goes through the `Value` tree as before; its text is pinned to what
/// the tree-lowering serde shim printed for the same values.
#[test]
fn json_text_is_unchanged() {
    let spec = DeploySpec {
        protocol: "WbCast".into(),
        num_groups: 2,
        group_size: 3,
        num_clients: 1,
        addrs: vec!["127.0.0.1:7000".into(), "127.0.0.1:7001".into()],
        compaction_interval: 256,
        compaction_lag: 64,
        heartbeat_ms: 50,
        election_timeout_ms: 400,
        retry_timeout_ms: 1000,
        wire: None,
        routes: Some(vec![vec!["a\"b".into()], vec![]]),
    };
    let spec_json = concat!(
        r#"{"protocol":"WbCast","num_groups":2,"group_size":3,"num_clients":1,"#,
        r#""addrs":["127.0.0.1:7000","127.0.0.1:7001"],"#,
        r#""compaction_interval":256,"compaction_lag":64,"heartbeat_ms":50,"#,
        r#""election_timeout_ms":400,"retry_timeout_ms":1000,"wire":null,"#,
        r#""routes":[["a\"b"],[]]}"#
    );
    assert_eq!(to_json(&spec).unwrap(), spec_json);
    assert_eq!(from_json::<DeploySpec>(spec_json).unwrap(), spec);
    // `wire` and `routes` are optional in a hand-written spec.
    let terse = spec_json.replace(r#","wire":null,"routes":[["a\"b"],[]]"#, "");
    assert_eq!(
        from_json::<DeploySpec>(&terse).unwrap(),
        DeploySpec {
            routes: None,
            ..spec
        }
    );

    let line = DeliveryLine {
        process: 1,
        sender: 6,
        seq: 300,
        gts_time: 12_345_678_901,
        gts_group: u32::MAX,
        elapsed_ms: 12.5,
    };
    assert_eq!(
        to_json(&line).unwrap(),
        r#"{"process":1,"sender":6,"seq":300,"gts_time":12345678901,"gts_group":4294967295,"elapsed_ms":12.5}"#
    );

    let accept = WhiteBoxMsg::Accept {
        msg: AppMessage::new(
            MsgId::new(ProcessId(6), 9),
            Destination::new(vec![GroupId(0), GroupId(200)]).unwrap(),
            Payload::from(vec![0u8, 127, 128, 255]),
        ),
        group: GroupId(1),
        ballot: Ballot::new(3, ProcessId(2)),
        local_ts: Timestamp::BOTTOM,
    };
    assert_eq!(
        to_json(&accept).unwrap(),
        concat!(
            r#"{"Accept":{"msg":{"id":{"sender":6,"seq":9},"dest":[0,200],"#,
            r#""payload":[0,127,128,255]},"group":1,"#,
            r#""ballot":{"Proper":{"round":3,"leader":2}},"local_ts":"Bottom"}}"#
        )
    );
}

/// A spec that still carries a timer-batching field is refused by name:
/// unknown fields are otherwise skipped, so an old batching spec would start
/// unbatched without a word.
#[test]
fn retired_batching_fields_are_refused() {
    let spec = DeploySpec::loopback(wbam_harness::Protocol::WhiteBox, 2, 3, 1, 7000);
    let json = spec.to_json().unwrap();
    assert_eq!(DeploySpec::from_json(&json).unwrap(), spec);
    for field in ["max_batch", "batch_delay_ms"] {
        let old = json.replacen('{', &format!("{{\"{field}\":1,"), 1);
        let err = DeploySpec::from_json(&old).unwrap_err().to_string();
        assert!(err.contains(field), "{field}: {err}");
        assert!(err.contains("timer batching was retired"), "{field}: {err}");
    }
}

/// One hostile edit of a valid body: cut it short, flip one byte, or replace
/// one byte with the varint of a huge length or count.
fn mutate(body: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let at = rng.gen_range(0..body.len());
    match rng.gen_range(0..3) {
        0 => body[..at].to_vec(),
        1 => {
            let mut flipped = body.to_vec();
            flipped[at] ^= rng.gen_range(1..=255) as u8;
            flipped
        }
        _ => {
            let huge: &[u8] = if rng.gen_bool(0.5) {
                &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F] // u32::MAX
            } else {
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F] // i64::MAX
            };
            [&body[..at], huge, &body[at + 1..]].concat()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every variant of all three message enums survives both codecs, the
    /// decodes agree, and the binary bytes are canonical.
    #[test]
    fn every_variant_round_trips_and_both_codecs_agree(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..WHITEBOX_VARIANTS {
            assert_codecs_agree(&arb_whitebox(&mut rng, variant));
        }
        for variant in 0..BASELINE_VARIANTS {
            assert_codecs_agree(&arb_baseline(&mut rng, variant));
        }
        for variant in 0..PAXOS_VARIANTS {
            assert_codecs_agree(&arb_paxos(&mut rng, variant));
        }
    }

    /// Hostile input (WIRE.md §5.5): the decoder answers a mutated frame with
    /// an error or a value without panicking, and without allocating beyond
    /// what the input's length can account for: a spliced-in length of 2^32
    /// or 2^63 must be refused before anything is reserved for it. A value
    /// it does accept re-encodes to bytes that decode to that same value.
    #[test]
    fn mutated_frames_are_refused_or_decoded_without_over_allocation(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..WHITEBOX_VARIANTS {
            let body = serde_binary::to_vec(&arb_whitebox(&mut rng, variant)).expect("encode");
            for _ in 0..8 {
                let mutated = mutate(&body, &mut rng);
                let (decoded, made) =
                    common::measure(|| serde_binary::from_slice::<WhiteBoxMsg>(&mutated).ok());
                // Decoded data is a small multiple of the input (the worst
                // case is a one-entry `BTreeMap<MsgId, RecordSnapshot>`, whose
                // first insertion allocates an 11-slot node); the constant
                // covers an error message.
                let allowed = 64 * mutated.len() + 4096;
                prop_assert!(
                    made.bytes <= allowed && made.calls <= mutated.len() + 8,
                    "{} allocator calls for {} bytes on {} bytes of input {:?}",
                    made.calls,
                    made.bytes,
                    mutated.len(),
                    mutated
                );
                if let Some(value) = decoded {
                    let again = serde_binary::to_vec(&value).expect("re-encode");
                    let back = serde_binary::from_slice::<WhiteBoxMsg>(&again);
                    prop_assert_eq!(back.as_ref(), Ok(&value), "accepted {:?}", mutated);
                }
            }
        }
    }
}
