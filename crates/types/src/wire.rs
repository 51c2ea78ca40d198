//! Length-prefixed wire framing for protocol messages.
//!
//! The sans-IO protocols exchange strongly typed messages; when they are run
//! over a byte-oriented transport (the loopback TCP transport of
//! `wbam-runtime`, or a file-based trace), messages are framed as
//! `u32 big-endian length || body`, where the body is produced by a
//! [`WireCodec`]:
//!
//! * [`WireCodec::Binary`] (the default) — the compact `serde_binary` format:
//!   structs as their fields in declaration order, enum variants as their
//!   index, varint integers, packed byte payloads, streamed straight between
//!   the typed message and the frame's bytes. This is the deployed runtime's
//!   codec; `WIRE.md` at the repo root specifies it byte-for-byte.
//! * [`WireCodec::Json`] — self-describing `serde_json` bodies, kept for
//!   debuggable traces and as a compatibility flag (`wbamd --wire json`).
//!
//! Connections additionally start with a fixed 4-byte preamble
//! (`"WB" || version || codec`) so that a mixed-codec or mixed-version
//! cluster fails fast with a clear error instead of surfacing as garbled
//! frame decodes. See [`encode_preamble`] / [`check_preamble`].

use bytes::{Buf, Bytes, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::WbamError;

/// Maximum accepted frame body length (16 MiB); guards against corrupt length
/// prefixes when reading from a byte stream.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The two magic bytes opening every connection preamble.
pub const WIRE_MAGIC: [u8; 2] = *b"WB";

/// The wire protocol version negotiated in the connection preamble. Version
/// 2 gave `DELIVER` its by-reference form; version 3 moved batching into the
/// transport's `Batch` frame and dropped the white-box batch messages
/// (`WIRE.md` §2, §7). Processes of different versions refuse each other at
/// the preamble.
pub const WIRE_VERSION: u8 = 3;

/// Length of the connection preamble in bytes.
pub const PREAMBLE_LEN: usize = 4;

/// The codec byte of the retired self-describing binary codec, which wrote
/// every struct field and enum variant name into the frame. A peer that
/// still sends it is refused by name.
const RETIRED_SELF_DESCRIBING_BINARY: u8 = 2;

/// The serialisation format used for frame bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireCodec {
    /// Compact binary bodies (`serde_binary`); the deployed default.
    #[default]
    Binary,
    /// Self-describing JSON bodies (`serde_json`); the compatibility codec.
    Json,
}

impl WireCodec {
    /// The codec byte carried in the connection preamble.
    pub const fn wire_byte(self) -> u8 {
        match self {
            WireCodec::Json => 1,
            WireCodec::Binary => 3,
        }
    }

    /// Inverse of [`Self::wire_byte`].
    pub fn from_wire_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(WireCodec::Json),
            3 => Some(WireCodec::Binary),
            _ => None,
        }
    }

    /// The codec's name as used by `--wire` flags and bench records.
    pub const fn name(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "binary",
        }
    }

    /// Parses a `--wire` flag value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "json" => Some(WireCodec::Json),
            "binary" => Some(WireCodec::Binary),
            _ => None,
        }
    }
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds the 4-byte preamble a connecting peer must send before its first
/// frame: `WIRE_MAGIC || WIRE_VERSION || codec byte`.
pub const fn encode_preamble(codec: WireCodec) -> [u8; PREAMBLE_LEN] {
    [
        WIRE_MAGIC[0],
        WIRE_MAGIC[1],
        WIRE_VERSION,
        codec.wire_byte(),
    ]
}

/// Validates a received connection preamble against the local codec.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] with a message naming the exact mismatch —
/// wrong magic (not a WBAM peer), unsupported version, the retired
/// self-describing binary codec, any other unknown codec byte, or a codec
/// disagreeing with `expected` (e.g. a `--wire json` process dialling a
/// `--wire binary` cluster).
pub fn check_preamble(bytes: &[u8; PREAMBLE_LEN], expected: WireCodec) -> Result<(), WbamError> {
    if bytes[..2] != WIRE_MAGIC {
        return Err(WbamError::Codec(format!(
            "connection preamble has bad magic {:02x}{:02x} (expected \"WB\"): not a WBAM peer",
            bytes[0], bytes[1]
        )));
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WbamError::Codec(format!(
            "peer speaks wire version {} but this process speaks {WIRE_VERSION}",
            bytes[2]
        )));
    }
    match WireCodec::from_wire_byte(bytes[3]) {
        None if bytes[3] == RETIRED_SELF_DESCRIBING_BINARY => Err(WbamError::Codec(format!(
            "peer uses the retired self-describing binary codec (codec byte {}); \
             this process speaks the schema-directed binary codec (codec byte {}): \
             run every process of the cluster from the same release",
            bytes[3],
            WireCodec::Binary.wire_byte()
        ))),
        None => Err(WbamError::Codec(format!(
            "peer sent unknown wire codec byte {}",
            bytes[3]
        ))),
        Some(codec) if codec != expected => Err(WbamError::Codec(format!(
            "wire codec mismatch: peer uses --wire {codec} but this process uses --wire {expected}"
        ))),
        Some(_) => Ok(()),
    }
}

/// Encodes a message as a length-prefixed frame using `codec` for the body.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] if serialisation fails (which only happens for
/// types whose `Serialize` implementation can fail) or if the serialised body
/// exceeds [`MAX_FRAME_LEN`]. The length check matters: `body.len() as u32`
/// would otherwise silently truncate a body longer than `u32::MAX`, emitting a
/// corrupt length prefix the peer cannot resync from, and any frame longer
/// than [`MAX_FRAME_LEN`] would be rejected by the receiving decode anyway.
pub fn encode_frame_with<M: Serialize>(codec: WireCodec, msg: &M) -> Result<Bytes, WbamError> {
    let mut frame = Vec::with_capacity(256);
    encode_frame_into(codec, msg, &mut frame)?;
    Ok(Bytes::from(frame))
}

/// Appends a message as one length-prefixed frame to `out` — the body is
/// written behind a placeholder for its length, straight into the caller's
/// buffer (a transport's output buffer), so a frame costs no allocation and
/// no copy of its own.
///
/// # Errors
///
/// Same conditions as [`encode_frame_with`]. On error `out` is truncated back
/// to its length on entry, so a byte stream being assembled in it stays cut
/// at a frame boundary.
pub fn encode_frame_into<M: Serialize>(
    codec: WireCodec,
    msg: &M,
    out: &mut Vec<u8>,
) -> Result<(), WbamError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let written = match codec {
        WireCodec::Json => serde_json::to_vec(msg)
            .map(|body| out.extend_from_slice(&body))
            .map_err(|e| WbamError::Codec(e.to_string())),
        WireCodec::Binary => {
            serde_binary::encode_into(msg, out);
            Ok(())
        }
    };
    let body_len = out.len() - start - 4;
    let result = match written {
        Ok(()) if body_len > MAX_FRAME_LEN => Err(WbamError::Codec(format!(
            "frame body of {body_len} bytes exceeds maximum {MAX_FRAME_LEN}"
        ))),
        other => other,
    };
    match result {
        Ok(()) => out[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes()),
        Err(_) => out.truncate(start),
    }
    result
}

/// Attempts to decode one frame from the front of the byte slice `input`.
///
/// Returns the decoded message and the number of bytes consumed, or
/// `Ok(None)` when `input` does not yet contain a full frame. Unlike
/// [`decode_frame_with`] this never shifts buffer contents, so a reader can
/// decode a whole burst of frames with a cursor and compact its buffer once.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] when the length prefix exceeds
/// [`MAX_FRAME_LEN`] or the body fails to deserialise.
pub fn decode_frame_slice<M: DeserializeOwned>(
    codec: WireCodec,
    input: &[u8],
) -> Result<Option<(M, usize)>, WbamError> {
    if input.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([input[0], input[1], input[2], input[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WbamError::Codec(format!(
            "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        )));
    }
    if input.len() < 4 + len {
        return Ok(None);
    }
    let body = &input[4..4 + len];
    let msg = match codec {
        WireCodec::Json => {
            serde_json::from_slice(body).map_err(|e| WbamError::Codec(e.to_string()))?
        }
        WireCodec::Binary => {
            serde_binary::from_slice(body).map_err(|e| WbamError::Codec(e.to_string()))?
        }
    };
    Ok(Some((msg, 4 + len)))
}

/// Attempts to decode one frame from the front of `buf`.
///
/// On success the consumed bytes are removed from `buf` and the decoded message
/// is returned. Returns `Ok(None)` when the buffer does not yet contain a full
/// frame (more bytes must be read from the transport).
///
/// # Errors
///
/// Returns [`WbamError::Codec`] when the length prefix exceeds
/// [`MAX_FRAME_LEN`] or the body fails to deserialise.
pub fn decode_frame_with<M: DeserializeOwned>(
    codec: WireCodec,
    buf: &mut BytesMut,
) -> Result<Option<M>, WbamError> {
    match decode_frame_slice(codec, &buf[..])? {
        Some((msg, consumed)) => {
            buf.advance(consumed);
            Ok(Some(msg))
        }
        None => Ok(None),
    }
}

/// Encodes a message directly to a JSON string (used for traces and tooling).
///
/// # Errors
///
/// Returns [`WbamError::Codec`] if serialisation fails.
pub fn to_json<M: Serialize>(msg: &M) -> Result<String, WbamError> {
    serde_json::to_string(msg).map_err(|e| WbamError::Codec(e.to_string()))
}

/// Decodes a message from a JSON string.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] if deserialisation fails.
pub fn from_json<M: DeserializeOwned>(json: &str) -> Result<M, WbamError> {
    serde_json::from_str(json).map_err(|e| WbamError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Ping {
        seq: u64,
        note: String,
    }

    const BOTH: [WireCodec; 2] = [WireCodec::Json, WireCodec::Binary];

    #[test]
    fn frame_round_trip() {
        for codec in BOTH {
            let msg = Ping {
                seq: 7,
                note: "hello".to_string(),
            };
            let frame = encode_frame_with(codec, &msg).unwrap();
            let mut buf = BytesMut::from(&frame[..]);
            let back: Ping = decode_frame_with(codec, &mut buf).unwrap().unwrap();
            assert_eq!(back, msg);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn binary_frames_are_smaller() {
        let msg = Ping {
            seq: 123_456,
            note: "hello".to_string(),
        };
        let json = encode_frame_with(WireCodec::Json, &msg).unwrap();
        let binary = encode_frame_with(WireCodec::Binary, &msg).unwrap();
        assert!(
            binary.len() < json.len(),
            "binary {} >= json {}",
            binary.len(),
            json.len()
        );
    }

    #[test]
    fn partial_frames_request_more_data() {
        for codec in BOTH {
            let msg = Ping {
                seq: 1,
                note: "x".to_string(),
            };
            let frame = encode_frame_with(codec, &msg).unwrap();
            let mut buf = BytesMut::from(&frame[..3]);
            assert_eq!(decode_frame_with::<Ping>(codec, &mut buf).unwrap(), None);
            let mut buf = BytesMut::from(&frame[..frame.len() - 1]);
            assert_eq!(decode_frame_with::<Ping>(codec, &mut buf).unwrap(), None);
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        for codec in BOTH {
            let a = Ping {
                seq: 1,
                note: "a".to_string(),
            };
            let b = Ping {
                seq: 2,
                note: "b".to_string(),
            };
            let mut buf = BytesMut::new();
            buf.extend_from_slice(&encode_frame_with(codec, &a).unwrap());
            buf.extend_from_slice(&encode_frame_with(codec, &b).unwrap());
            assert_eq!(
                decode_frame_with::<Ping>(codec, &mut buf).unwrap().unwrap(),
                a
            );
            assert_eq!(
                decode_frame_with::<Ping>(codec, &mut buf).unwrap().unwrap(),
                b
            );
            assert_eq!(decode_frame_with::<Ping>(codec, &mut buf).unwrap(), None);
        }
    }

    #[test]
    fn slice_decode_reports_consumed_bytes() {
        let a = Ping {
            seq: 1,
            note: "a".to_string(),
        };
        let b = Ping {
            seq: 2,
            note: "bb".to_string(),
        };
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame_with(WireCodec::Binary, &a).unwrap());
        stream.extend_from_slice(&encode_frame_with(WireCodec::Binary, &b).unwrap());
        let (first, consumed): (Ping, usize) = decode_frame_slice(WireCodec::Binary, &stream)
            .unwrap()
            .unwrap();
        assert_eq!(first, a);
        let (second, rest): (Ping, usize) =
            decode_frame_slice(WireCodec::Binary, &stream[consumed..])
                .unwrap()
                .unwrap();
        assert_eq!(second, b);
        assert_eq!(consumed + rest, stream.len());
    }

    /// A frame body one byte over the limit is rejected on the encode side
    /// (instead of truncating its length prefix), while a body at exactly the
    /// limit round-trips. Every added `x` in `note` grows the JSON body by
    /// exactly one byte, so the body length can be dialled in precisely.
    #[test]
    fn encode_rejects_bodies_over_the_frame_limit() {
        let overhead = serde_json::to_vec(&Ping {
            seq: 7,
            note: String::new(),
        })
        .unwrap()
        .len();

        let over = Ping {
            seq: 7,
            note: "x".repeat(MAX_FRAME_LEN - overhead + 1),
        };
        let err = encode_frame_with(WireCodec::Json, &over).unwrap_err();
        assert!(matches!(err, WbamError::Codec(_)), "got {err:?}");
        assert!(err.to_string().contains("exceeds maximum"));

        let at_limit = Ping {
            seq: 7,
            note: "x".repeat(MAX_FRAME_LEN - overhead),
        };
        let frame = encode_frame_with(WireCodec::Json, &at_limit).unwrap();
        assert_eq!(frame.len(), 4 + MAX_FRAME_LEN);
        let mut buf = BytesMut::from(&frame[..]);
        let back: Ping = decode_frame_with(WireCodec::Json, &mut buf)
            .unwrap()
            .unwrap();
        assert_eq!(back, at_limit);
    }

    /// Encoding into a caller's buffer appends exactly the bytes
    /// `encode_frame_with` produces, and a failed encode leaves the buffer as
    /// it found it.
    #[test]
    fn encode_into_appends_whole_frames_or_nothing() {
        for codec in BOTH {
            let msg = Ping {
                seq: 7,
                note: "hello".to_string(),
            };
            let mut out = b"earlier frames".to_vec();
            encode_frame_into(codec, &msg, &mut out).unwrap();
            encode_frame_into(codec, &msg, &mut out).unwrap();
            let frame = encode_frame_with(codec, &msg).unwrap();
            assert_eq!(out, [b"earlier frames", &frame[..], &frame[..]].concat());

            let before = out.clone();
            let over = Ping {
                seq: 7,
                note: "x".repeat(MAX_FRAME_LEN + 1),
            };
            assert!(encode_frame_into(codec, &over, &mut out).is_err());
            assert_eq!(out, before);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        for codec in BOTH {
            let mut buf = BytesMut::new();
            buf.put_u32(u32::MAX);
            buf.put_slice(&[0u8; 16]);
            assert!(decode_frame_with::<Ping>(codec, &mut buf).is_err());
        }
    }

    #[test]
    fn corrupt_body_is_rejected() {
        for codec in BOTH {
            let mut buf = BytesMut::new();
            buf.put_u32(3);
            buf.put_slice(b"not");
            assert!(decode_frame_with::<Ping>(codec, &mut buf).is_err());
        }
    }

    #[test]
    fn cross_codec_decode_fails() {
        // A JSON frame fed to the binary decoder (and vice versa) must error,
        // not silently decode: this is what the preamble handshake prevents.
        let msg = Ping {
            seq: 9,
            note: "mismatch".to_string(),
        };
        let json = encode_frame_with(WireCodec::Json, &msg).unwrap();
        let mut buf = BytesMut::from(&json[..]);
        assert!(decode_frame_with::<Ping>(WireCodec::Binary, &mut buf).is_err());
        let binary = encode_frame_with(WireCodec::Binary, &msg).unwrap();
        let mut buf = BytesMut::from(&binary[..]);
        assert!(decode_frame_with::<Ping>(WireCodec::Json, &mut buf).is_err());
    }

    #[test]
    fn preamble_round_trip_and_mismatches() {
        for codec in BOTH {
            let p = encode_preamble(codec);
            assert_eq!(p.len(), PREAMBLE_LEN);
            check_preamble(&p, codec).unwrap();
        }
        // Codec mismatch names both sides.
        let err = check_preamble(&encode_preamble(WireCodec::Json), WireCodec::Binary).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("--wire json") && text.contains("--wire binary"),
            "{text}"
        );
        // Bad magic (e.g. an HTTP client) is called out as a non-WBAM peer.
        let err = check_preamble(b"GET ", WireCodec::Binary).unwrap_err();
        assert!(err.to_string().contains("not a WBAM peer"));
        // Future version byte.
        let err = check_preamble(&[b'W', b'B', 9, 2], WireCodec::Binary).unwrap_err();
        assert!(err.to_string().contains("wire version 9"));
        // Unknown codec byte.
        let err = check_preamble(&[b'W', b'B', WIRE_VERSION, 7], WireCodec::Binary).unwrap_err();
        assert!(err.to_string().contains("codec byte 7"));
        // The retired self-describing binary codec is refused by name, by
        // binary and JSON processes alike.
        assert_eq!(WireCodec::Binary.wire_byte(), 3);
        assert_eq!(WireCodec::from_wire_byte(2), None);
        for ours in BOTH {
            let err = check_preamble(&[b'W', b'B', WIRE_VERSION, 2], ours).unwrap_err();
            assert!(
                err.to_string()
                    .contains("retired self-describing binary codec"),
                "{err}"
            );
        }
    }

    /// A peer of an earlier release — wire version 1, before `DELIVER` by
    /// reference, or version 2, before the transport's `Batch` frame — is
    /// refused at the preamble under either codec, and the error names both
    /// versions.
    #[test]
    fn a_version_one_peer_is_refused_by_name() {
        assert_eq!(WIRE_VERSION, 3);
        for (old, codec) in [1, 2].into_iter().flat_map(|v| BOTH.map(|c| (v, c))) {
            let err = check_preamble(&[b'W', b'B', old, codec.wire_byte()], codec).unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains(&format!("wire version {old}")) && text.contains("speaks 3"),
                "{text}"
            );
        }
    }

    #[test]
    fn codec_names_round_trip() {
        for codec in BOTH {
            assert_eq!(WireCodec::from_name(codec.name()), Some(codec));
            assert_eq!(WireCodec::from_wire_byte(codec.wire_byte()), Some(codec));
        }
        assert_eq!(WireCodec::from_name("msgpack"), None);
        assert_eq!(WireCodec::default(), WireCodec::Binary);
    }

    #[test]
    fn json_helpers_round_trip() {
        let msg = Ping {
            seq: 9,
            note: "trace".to_string(),
        };
        let json = to_json(&msg).unwrap();
        let back: Ping = from_json(&json).unwrap();
        assert_eq!(back, msg);
        assert!(from_json::<Ping>("{").is_err());
    }
}
