//! Allocation and size gate for the binary wire codec: encoding a frame and
//! decoding it back stream between the typed message and the frame's bytes,
//! so each costs a handful of allocator calls and a small multiple of the
//! frame's length, whatever the payload size. A codec that lowers messages to
//! a `Value` tree first allocates a `String` per field name and 32 bytes per
//! payload byte, and fails this on both counts. The frame itself carries no
//! field or variant names, which bounds the size of a small `ACCEPT`.

mod common;

use common::{measure, CountingAlloc};
use wbam_core::{BallotVector, WhiteBoxMsg};
use wbam_types::wire::{decode_frame_slice, encode_frame_with, WireCodec};
use wbam_types::{AppMessage, Ballot, Destination, GroupId, MsgId, Payload, ProcessId, Timestamp};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MAX_CALLS: usize = 6;

/// The largest a 20 B-payload `ACCEPT` frame may be, length prefix included:
/// 50 bytes positionally, 154 when every frame named its fields and variants.
const MAX_SMALL_ACCEPT_FRAME: usize = 56;

fn accept(payload_len: usize) -> WhiteBoxMsg {
    WhiteBoxMsg::Accept {
        msg: AppMessage::new(
            MsgId::new(ProcessId(6), 41),
            Destination::new(vec![GroupId(0), GroupId(1)]).expect("non-empty destination"),
            Payload::from(vec![0xA5u8; payload_len]),
        ),
        group: GroupId(0),
        ballot: Ballot::new(1, ProcessId(0)),
        local_ts: Timestamp::new(77, GroupId(0)),
    }
}

#[test]
fn binary_frames_encode_and_decode_within_an_allocation_budget() {
    for payload_len in [20, 4096] {
        let msg = accept(payload_len);
        let (frame, encode) = measure(|| encode_frame_with(WireCodec::Binary, &msg));
        let frame = frame.expect("encode");
        let (decoded, decode) =
            measure(|| decode_frame_slice::<WhiteBoxMsg>(WireCodec::Binary, &frame));
        let (back, consumed) = decoded.expect("decode").expect("full frame");
        assert_eq!(back, msg);
        assert_eq!(consumed, frame.len());
        if payload_len == 20 {
            assert!(
                frame.len() <= MAX_SMALL_ACCEPT_FRAME,
                "a 20 B-payload ACCEPT is a {}-byte frame; the bound is {MAX_SMALL_ACCEPT_FRAME}",
                frame.len()
            );
        }

        let max_bytes = 4 * frame.len() + 1024;
        for (what, made) in [("encode", encode), ("decode", decode)] {
            assert!(
                made.calls <= MAX_CALLS && made.bytes <= max_bytes,
                "{what} of a {}-byte frame ({payload_len} B payload) made {} allocator calls \
                 for {} bytes; the budget is {MAX_CALLS} calls and {max_bytes} bytes",
                frame.len(),
                made.calls,
                made.bytes,
            );
        }
    }
}

/// Decoding an `ACCEPT_ACK` allocates nothing: its ballot vector (one entry
/// per destination group) is read in place, for one group and for two. A
/// ballot vector decoded into a `BTreeMap` allocates a node per ack.
#[test]
fn decoding_an_accept_ack_does_not_allocate() {
    for groups in [1, 2] {
        let ballots: BallotVector = (0..groups)
            .map(|g| (GroupId(g), Ballot::new(3, ProcessId(3 * g))))
            .collect();
        let ack = WhiteBoxMsg::AcceptAck {
            msg_id: MsgId::new(ProcessId(6), 41),
            group: GroupId(0),
            ballots,
        };
        let frame = encode_frame_with(WireCodec::Binary, &ack).expect("encode");
        let (decoded, made) =
            measure(|| decode_frame_slice::<WhiteBoxMsg>(WireCodec::Binary, &frame));
        let (back, _) = decoded.expect("decode").expect("full frame");
        assert_eq!(back, ack);
        assert_eq!(
            made.calls, 0,
            "decoding a {groups}-group ACCEPT_ACK made {} allocator calls for {} bytes",
            made.calls, made.bytes
        );
    }
}

/// Decoding an `ACCEPT` makes one allocator call, for the payload: its
/// two-group destination set is read in place. A destination decoded into a
/// `Vec` and then copied into an `Arc` made two more.
#[test]
fn decoding_an_accept_allocates_only_its_payload() {
    let frame = encode_frame_with(WireCodec::Binary, &accept(20)).expect("encode");
    let (decoded, made) = measure(|| decode_frame_slice::<WhiteBoxMsg>(WireCodec::Binary, &frame));
    assert_eq!(decoded.expect("decode").expect("full frame").0, accept(20));
    assert_eq!(
        made.calls, 1,
        "decoding a two-group ACCEPT made {} allocator calls for {} bytes",
        made.calls, made.bytes
    );
}
