//! Property tests of the wire framing (`wbam_types::wire`) over *every*
//! protocol message type the TCP runtime carries: each `WhiteBoxMsg`,
//! `BaselineMsg` and `PaxosMsg` variant — including `ACCEPT_BATCH`,
//! checkpoint-bearing `NEW_STATE` and `STATE_TRANSFER` — must survive
//! framing byte-for-byte under **both wire codecs** (compact binary, the
//! deployed default, and JSON, the `--wire json` compatibility codec), both
//! as a single frame and as concatenated frames fed to the decoder at
//! randomized split points (the way a TCP reader actually sees them). The
//! preamble handshake that keeps mixed-codec clusters from ever exchanging
//! frames is regression-tested below that.
//!
//! The last section holds the binary codec's streaming encoder and decoder
//! (typed value <-> frame bytes, what the runtime runs) to its reference
//! tree encoder and decoder (`Value` <-> bytes): same bytes out, same value
//! or an error from both on any input, hostile input included.

mod common;

use std::collections::BTreeMap;

use bytes::BytesMut;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::value::{from_value, to_value, Value};
use serde::{Deserialize, Serialize};
use wbam_baselines::{BaselineMsg, Command};
use wbam_consensus::{PaxosMsg, Slot};
use wbam_core::{AcceptEntry, DeliverEntry, RecordSnapshot, StateSnapshot, WhiteBoxMsg};
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

fn arb_ballot_vector(rng: &mut StdRng) -> BTreeMap<GroupId, Ballot> {
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
/// (0..16 covers the whole enum).
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
        3 => WhiteBoxMsg::AcceptBatch {
            group: GroupId(rng.gen_range(0..8)),
            ballot: arb_ballot(rng),
            entries: (0..rng.gen_range(1..5))
                .map(|_| AcceptEntry {
                    msg: arb_app_message(rng),
                    local_ts: arb_timestamp(rng),
                })
                .collect(),
        },
        4 => WhiteBoxMsg::AcceptAckBatch {
            group: GroupId(rng.gen_range(0..8)),
            entries: (0..rng.gen_range(1..5))
                .map(|_| (arb_msg_id(rng), arb_ballot_vector(rng)))
                .collect(),
        },
        5 => WhiteBoxMsg::Deliver {
            msg: arb_app_message(rng),
            ballot: arb_ballot(rng),
            local_ts: arb_timestamp(rng),
            global_ts: arb_timestamp(rng),
        },
        6 => WhiteBoxMsg::DeliverBatch {
            ballot: arb_ballot(rng),
            entries: (0..rng.gen_range(1..5))
                .map(|_| DeliverEntry {
                    msg: arb_app_message(rng),
                    local_ts: arb_timestamp(rng),
                    global_ts: arb_timestamp(rng),
                })
                .collect(),
        },
        7 => WhiteBoxMsg::NewLeader {
            ballot: arb_ballot(rng),
        },
        8 => WhiteBoxMsg::NewLeaderAck {
            ballot: arb_ballot(rng),
            cballot: arb_ballot(rng),
            checkpoint: arb_checkpoint(rng),
            snapshot: arb_snapshot(rng),
        },
        9 => WhiteBoxMsg::NewState {
            ballot: arb_ballot(rng),
            checkpoint: arb_checkpoint(rng),
            snapshot: arb_snapshot(rng),
        },
        10 => WhiteBoxMsg::NewStateAck {
            ballot: arb_ballot(rng),
        },
        11 => WhiteBoxMsg::Heartbeat {
            ballot: arb_ballot(rng),
        },
        12 => WhiteBoxMsg::StableReport {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
        },
        13 => WhiteBoxMsg::StableAdvance {
            watermarks: arb_watermarks(rng),
        },
        14 => WhiteBoxMsg::StablePruned {
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

const WHITEBOX_VARIANTS: usize = 16;

/// One random instance of the Paxos wire variant with index `variant`
/// (0..8 covers the whole enum).
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
        4 => PaxosMsg::Chosen {
            slot: rng.gen_range(0..1000),
            cmd: arb_command(rng),
        },
        5 => PaxosMsg::AcceptMany {
            ballot: arb_ballot(rng),
            start_slot: rng.gen_range(0..1000),
            cmds: (0..rng.gen_range(1..5)).map(|_| arb_command(rng)).collect(),
        },
        6 => PaxosMsg::AcceptedMany {
            ballot: arb_ballot(rng),
            start_slot: rng.gen_range(0..1000),
            count: rng.gen_range(1..16),
        },
        _ => PaxosMsg::ChosenMany {
            entries: (0..rng.gen_range(1..5))
                .map(|_| (rng.gen_range(0..1000) as Slot, arb_command(rng)))
                .collect(),
        },
    }
}

const PAXOS_VARIANTS: usize = 8;

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

/// Both codecs the deployment runtime can speak; every round-trip property
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
        "ACCEPT_BATCH",
        "ACCEPT_ACK_BATCH",
        "DELIVER",
        "DELIVER_BATCH",
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
    // naming both sides' codecs (the operator's hint to fix `--wire`).
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

// --- streaming codec vs reference tree codec -------------------------------

/// The streaming encoder writes exactly the bytes the reference encoder
/// writes for the value's tree (WIRE.md §5), framed or not.
fn assert_encodes_like_tree<T: Serialize>(value: &T) {
    let reference = serde_binary::value_to_vec(&to_value(value));
    assert_eq!(serde_binary::to_vec(value).expect("encode"), reference);
    let frame = encode_frame_with(WireCodec::Binary, value).expect("encode frame");
    assert_eq!(frame[..4], (reference.len() as u32).to_be_bytes());
    assert_eq!(frame[4..], reference[..]);
}

/// The streaming decoder and the reference path (bytes -> tree -> `T`) give
/// the same value, or both refuse. Returns the value if there is one.
fn assert_decodes_like_tree<T>(bytes: &[u8]) -> Option<T>
where
    T: DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let streamed = serde_binary::from_slice::<T>(bytes);
    let reference = serde_binary::value_from_slice(bytes)
        .and_then(|tree| from_value::<T>(&tree).map_err(Into::into));
    match (streamed, reference) {
        (Ok(streamed), Ok(reference)) => {
            assert_eq!(streamed, reference);
            Some(streamed)
        }
        (Err(_), Err(_)) => None,
        (streamed, reference) => {
            panic!("decoders disagree on {bytes:?}: streamed {streamed:?}, reference {reference:?}")
        }
    }
}

fn assert_codecs_agree<T>(value: &T)
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    assert_encodes_like_tree(value);
    let bytes = serde_binary::to_vec(value).expect("encode");
    assert_eq!(assert_decodes_like_tree::<T>(&bytes).as_ref(), Some(value));
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
/// from, and nothing else is.
#[test]
fn small_integer_sequences_and_payloads_match_the_reference() {
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

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Struct decoding rules both paths share: entries in any order, unknown
/// entries skipped — including the keys they intern, which later entries
/// refer to by index — the first of a repeated entry wins, and an absent
/// entry reads as `null` (`None`, `()`) or fails if the field needs a value.
#[test]
fn unknown_repeated_and_absent_fields_decode_like_the_reference() {
    let tree = map(vec![
        (
            "unknown",
            Value::Seq(vec![
                Value::Null,
                Value::Str("skipped".into()),
                map(vec![("a", Value::F64(0.5)), ("inner", Value::I64(-3))]),
                Value::Seq((0..4).map(Value::U64).collect()),
            ]),
        ),
        ("c", Value::Seq(vec![Value::U64(1), Value::U64(300 - 45)])),
        ("a", Value::U64(7)),
        ("a", Value::U64(9)),
        ("inner", Value::Bool(true)),
    ]);
    let bytes = serde_binary::value_to_vec(&tree);
    let probe = assert_decodes_like_tree::<Probe>(&bytes).expect("decodes");
    assert_eq!(
        probe,
        Probe {
            a: 7,
            b: None,
            c: vec![1, 255],
            d: (),
        }
    );

    // A `Vec<u8>` also arrives unpacked (a foreign encoder may not pack).
    let unpacked = [
        0x08, 2, 0, 1, b'a', 0x81, 0, 1, b'c', 0x07, 2, 0x81, 0x03, 0xFF, 0x01,
    ];
    let probe = assert_decodes_like_tree::<Probe>(&unpacked).expect("decodes");
    assert_eq!((probe.a, probe.c), (1, vec![1, 255]));

    // A required field that is absent, a wrong kind, an out-of-range byte.
    for tree in [
        map(vec![("c", Value::Seq(vec![]))]),
        map(vec![
            ("a", Value::Str("7".into())),
            ("c", Value::Seq(vec![])),
        ]),
        map(vec![
            ("a", Value::U64(7)),
            ("c", Value::Seq(vec![Value::U64(256)])),
        ]),
        Value::Seq(vec![]),
    ] {
        let bytes = serde_binary::value_to_vec(&tree);
        assert_eq!(assert_decodes_like_tree::<Probe>(&bytes), None, "{tree:?}");
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
        max_batch: 1,
        batch_delay_ms: 0,
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
        r#""addrs":["127.0.0.1:7000","127.0.0.1:7001"],"max_batch":1,"batch_delay_ms":0,"#,
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

    /// Every variant of all three message enums: same bytes from both
    /// encoders, same value back from both decoders.
    #[test]
    fn streaming_codec_matches_the_reference_on_every_variant(seed in 0u64..1_000_000) {
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

    /// Hostile input (WIRE.md §5.5): the typed decoder answers a mutated
    /// frame with an error or a value — the same as the reference — without
    /// panicking, and without allocating beyond what the input's length can
    /// account for: a spliced-in length of 2^32 or 2^63 must be refused
    /// before anything is reserved for it.
    #[test]
    fn mutated_frames_are_refused_or_decoded_without_over_allocation(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..WHITEBOX_VARIANTS {
            let body = serde_binary::to_vec(&arb_whitebox(&mut rng, variant)).expect("encode");
            for _ in 0..8 {
                let mutated = mutate(&body, &mut rng);
                let (_, made) =
                    common::measure(|| serde_binary::from_slice::<WhiteBoxMsg>(&mutated).ok());
                // Decoded data is a small multiple of the input (the worst
                // case is a one-entry `BTreeMap<MsgId, RecordSnapshot>`, whose
                // first insertion allocates an 11-slot node); the constant
                // covers the key table and an error message.
                let allowed = 64 * mutated.len() + 4096;
                prop_assert!(
                    made.bytes <= allowed && made.calls <= mutated.len() + 8,
                    "{} allocator calls for {} bytes on {} bytes of input {:?}",
                    made.calls,
                    made.bytes,
                    mutated.len(),
                    mutated
                );
                assert_decodes_like_tree::<WhiteBoxMsg>(&mutated);
            }
        }
    }
}
