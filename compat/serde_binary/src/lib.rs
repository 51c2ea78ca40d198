//! In-tree compact binary data format for the serde compatibility shim.
//!
//! This is the deployed runtime's wire codec (see `WIRE.md` at the repo root
//! for the byte-for-byte specification): a length-delimited, self-describing
//! encoding of the shim's data model built for small frames and cheap
//! encode/decode:
//!
//! * all lengths and unsigned integers are LEB128 varints; signed integers
//!   are zigzag-mapped first;
//! * unsigned integers `0..=127` are a single byte (the tag itself);
//! * map keys (struct field names, enum variant names) are interned per
//!   message: each distinct key is transmitted once, then referenced by a
//!   varint index, so batches of repeated structs carry near-zero name
//!   overhead;
//! * non-empty sequences whose elements are all unsigned integers `<= 255` —
//!   `Vec<u8>`/`Bytes` payloads, but also short lists of small ids — are
//!   packed as raw bytes.
//!
//! [`to_vec`] / [`encode_into`] and [`from_slice`] stream typed values
//! straight to and from those bytes (a `serde` sink and source; no
//! intermediate tree). [`value_to_vec`] / [`value_from_slice`] encode and
//! decode [`Value`] trees with separate code: they are the reference the
//! property tests hold the streaming pair to, byte for byte.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

use serde::de::{DeError, DeserializeOwned, Kind, Source};
use serde::ser::Sink;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Type tag for null.
const TAG_NULL: u8 = 0x00;
/// Type tag for `false`.
const TAG_FALSE: u8 = 0x01;
/// Type tag for `true`.
const TAG_TRUE: u8 = 0x02;
/// Type tag for an unsigned integer; payload is a LEB128 varint.
const TAG_U64: u8 = 0x03;
/// Type tag for a signed integer; payload is a zigzag LEB128 varint.
const TAG_I64: u8 = 0x04;
/// Type tag for a float; payload is the 8-byte little-endian IEEE-754 bit
/// pattern.
const TAG_F64: u8 = 0x05;
/// Type tag for a string; payload is a varint byte length + UTF-8.
const TAG_STR: u8 = 0x06;
/// Type tag for a sequence; payload is a varint count + elements.
const TAG_SEQ: u8 = 0x07;
/// Type tag for a map; payload is a varint count + interned-key entries.
const TAG_MAP: u8 = 0x08;
/// Type tag for a packed byte sequence: a non-empty sequence whose elements
/// are all unsigned integers `<= 255`, stored as a varint count + raw bytes.
const TAG_BYTES: u8 = 0x09;
/// Tags `0x80..=0xFF` encode the unsigned integer `n <= 127` inline as
/// `0x80 | n`.
const TAG_SMALL_U64: u8 = 0x80;

/// Maximum nesting depth accepted by the decoders, guarding the stack against
/// adversarial input from the network.
const MAX_DEPTH: usize = 128;

/// Initial capacity of the streaming codec's per-message key tables: the
/// distinct field and variant names of a typical protocol frame, so that the
/// table is one allocation.
const KEYS_HINT: usize = 16;

/// An error produced while encoding to or decoding from the binary format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error {
            message: e.to_string(),
        }
    }
}

/// A specialised `Result` for binary conversions.
pub type Result<T> = std::result::Result<T, Error>;

/// What the decoders return internally: the serde shim's error, which
/// [`Error`] wraps at the entry points.
type De<T> = std::result::Result<T, DeError>;

/// Serialises a value to its binary encoding.
///
/// # Errors
///
/// Never fails for values producible by the shim's `Serialize` impls; the
/// `Result` mirrors the `serde_json` entry points so call sites are
/// format-agnostic.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    encode_into(value, &mut out);
    Ok(out)
}

/// Appends a value's binary encoding to `out` (so a caller can frame it in
/// the same buffer).
pub fn encode_into<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.serialize(&mut Encoder {
        out,
        keys: Vec::with_capacity(KEYS_HINT),
        small_seq: None,
    });
}

/// Deserialises a value from its binary encoding.
///
/// # Errors
///
/// Returns an error on malformed input, trailing bytes, or a mismatch between
/// the decoded shape and the target type.
pub fn from_slice<T: DeserializeOwned>(input: &[u8]) -> Result<T> {
    let mut dec = Decoder {
        input: Reader {
            bytes: input,
            pos: 0,
        },
        keys: Vec::with_capacity(KEYS_HINT),
        packed: 0,
        depth: 0,
    };
    let value = T::deserialize(&mut dec)?;
    dec.input.expect_end()?;
    Ok(value)
}

/// Encodes a raw [`Value`] tree (the reference encoder).
pub fn value_to_vec(value: &Value) -> Vec<u8> {
    let mut enc = TreeEncoder {
        out: Vec::with_capacity(64),
        keys: HashMap::new(),
    };
    enc.write_value(value);
    enc.out
}

/// Decodes a raw [`Value`] tree, rejecting trailing bytes (the reference
/// decoder).
///
/// # Errors
///
/// Returns an error on truncated or malformed input, on nesting deeper than
/// an internal limit, or if bytes remain after the value.
pub fn value_from_slice(input: &[u8]) -> Result<Value> {
    let mut dec = TreeDecoder {
        input: Reader {
            bytes: input,
            pos: 0,
        },
        keys: Vec::new(),
    };
    let value = dec.read_value(0)?;
    dec.input.expect_end()?;
    Ok(value)
}

fn write_varint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a signed integer to an unsigned one with small absolute values small:
/// `0, -1, 1, -2, ...` become `0, 1, 2, 3, ...`.
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

// ---------------------------------------------------------------------------
// Streaming encoder
// ---------------------------------------------------------------------------

struct Encoder<'o> {
    out: &'o mut Vec<u8>,
    /// Per-message key dictionary in first-use order: index + 1 is the wire
    /// reference. Frames hold a dozen-odd distinct keys, so a linear scan of
    /// `&'static str`s beats hashing and owns nothing.
    keys: Vec<&'static str>,
    /// `(tag offset, first element offset)` of the innermost open sequence
    /// while everything written into it so far is an unsigned integer
    /// `<= 255`, i.e. while it may still have to be packed as `Bytes`. Any
    /// other write clears it, including a nested container's — so an outer
    /// sequence never needs remembering and one slot is enough.
    small_seq: Option<(usize, usize)>,
}

impl Encoder<'_> {
    /// Writes a tag that is not a small unsigned integer.
    fn tag(&mut self, tag: u8) {
        self.small_seq = None;
        self.out.push(tag);
    }

    fn len(&mut self, n: usize) {
        write_varint(self.out, n as u64);
    }
}

impl Sink for Encoder<'_> {
    fn null(&mut self) {
        self.tag(TAG_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.tag(if v { TAG_TRUE } else { TAG_FALSE });
    }

    fn u64(&mut self, v: u64) {
        if v <= 0x7F {
            self.out.push(TAG_SMALL_U64 | v as u8);
            return;
        }
        if v > 0xFF {
            self.small_seq = None;
        }
        self.out.push(TAG_U64);
        write_varint(self.out, v);
    }

    fn i64(&mut self, v: i64) {
        self.tag(TAG_I64);
        write_varint(self.out, zigzag(v));
    }

    fn f64(&mut self, v: f64) {
        self.tag(TAG_F64);
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.tag(TAG_STR);
        self.len(v.len());
        self.out.extend_from_slice(v.as_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.tag(if v.is_empty() { TAG_SEQ } else { TAG_BYTES });
        self.out.reserve(v.len() + 5);
        self.len(v.len());
        self.out.extend_from_slice(v);
    }

    fn begin_seq(&mut self, len: usize) {
        let tag_at = self.out.len();
        self.tag(TAG_SEQ);
        self.len(len);
        self.small_seq = Some((tag_at, self.out.len()));
    }

    /// WIRE.md §5.4 is value-directed: what was just written as a `Seq` of
    /// one-byte (`0x80 | n`) and three-byte (`0x03`, two-byte varint of
    /// `128..=255`) integers must go out as `Bytes` instead, so squeeze the
    /// elements down to one raw byte each in place. The count stays as is.
    fn end_seq(&mut self) {
        let Some((tag_at, first)) = self.small_seq.take() else {
            return;
        };
        if first == self.out.len() {
            return; // Empty stays `Seq`.
        }
        self.out[tag_at] = TAG_BYTES;
        let (mut read, mut write) = (first, first);
        while read < self.out.len() {
            let tag = self.out[read];
            self.out[write] = if tag == TAG_U64 {
                read += 2;
                (self.out[read - 1] & 0x7F) | (self.out[read] << 7)
            } else {
                tag & 0x7F
            };
            read += 1;
            write += 1;
        }
        self.out.truncate(write);
    }

    fn begin_map(&mut self, len: usize) {
        self.tag(TAG_MAP);
        self.len(len);
    }

    fn key(&mut self, key: &'static str) {
        match self.keys.iter().position(|k| *k == key) {
            Some(index) => self.len(index + 1),
            None => {
                self.keys.push(key);
                self.out.push(0);
                self.len(key.len());
                self.out.extend_from_slice(key.as_bytes());
            }
        }
    }

    fn end_map(&mut self) {}
}

// ---------------------------------------------------------------------------
// Reading primitives shared by both decoders (WIRE.md §5.5 limits)
// ---------------------------------------------------------------------------

const END_OF_INPUT: &str = "unexpected end of binary input";

fn unknown_tag_at(tag: u8, at: usize) -> DeError {
    DeError::new(format!("unknown type tag 0x{tag:02x} at byte {at}"))
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> De<u8> {
        let b = self.peek().ok_or_else(|| DeError::new(END_OF_INPUT))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> De<u64> {
        let mut n: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.bump()?;
            if shift == 63 && byte > 1 {
                return Err(DeError::new("varint overflows u64"));
            }
            n |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
            shift += 7;
            if shift > 63 {
                return Err(DeError::new("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a length that must not exceed the remaining input (each counted
    /// item needs at least one byte), so counts can't force huge allocations.
    fn len(&mut self, what: &str) -> De<usize> {
        let n = self.varint()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n > remaining {
            return Err(DeError::new(format!(
                "{what} length {n} exceeds remaining input ({remaining} bytes)"
            )));
        }
        Ok(n as usize)
    }

    fn exact(&mut self, len: usize) -> De<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DeError::new(END_OF_INPUT))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn str(&mut self, what: &str) -> De<&'a str> {
        let len = self.len(what)?;
        std::str::from_utf8(self.exact(len)?)
            .map_err(|e| DeError::new(format!("invalid UTF-8 in {what}: {e}")))
    }

    fn f64(&mut self) -> De<f64> {
        let bytes = self.exact(8)?;
        let bits = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
        Ok(f64::from_bits(bits))
    }

    /// Reads a map entry's key: inline on first use (and added to `keys`),
    /// a 1-based reference into `keys` after that.
    fn key(&mut self, keys: &mut Vec<&'a str>) -> De<&'a str> {
        let key_ref = self.varint()?;
        if key_ref == 0 {
            let key = self.str("map key")?;
            keys.push(key);
            return Ok(key);
        }
        usize::try_from(key_ref - 1)
            .ok()
            .and_then(|index| keys.get(index).copied())
            .ok_or_else(|| {
                DeError::new(format!(
                    "map key reference {key_ref} out of range ({} interned)",
                    keys.len()
                ))
            })
    }

    /// Children of a non-empty container opened at `depth` sit at
    /// `depth + 1`, which must not exceed [`MAX_DEPTH`].
    fn check_depth(depth: usize, count: usize) -> De<()> {
        if count > 0 && depth >= MAX_DEPTH {
            return Err(DeError::new("value nesting exceeds maximum depth"));
        }
        Ok(())
    }

    /// The error for the unknown `tag` just consumed.
    fn unknown_tag(&self, tag: u8) -> DeError {
        unknown_tag_at(tag, self.pos - 1)
    }

    fn expect_end(&self) -> De<()> {
        if self.pos != self.bytes.len() {
            return Err(DeError::new(format!(
                "trailing bytes after value: {} consumed, {} present",
                self.pos,
                self.bytes.len()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Streaming decoder
// ---------------------------------------------------------------------------

struct Decoder<'de> {
    input: Reader<'de>,
    /// Per-message key dictionary, in first-transmission order; the entries
    /// borrow the input.
    keys: Vec<&'de str>,
    /// Raw bytes still to hand out as integers from the `Bytes` sequence
    /// opened by `begin_seq` (it holds nothing else, so nothing nests in it).
    packed: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'de> Decoder<'de> {
    /// Consumes the next tag for a reader that wants an `expected` and cannot
    /// use a packed byte.
    fn tag(&mut self, expected: &str) -> De<u8> {
        if self.packed > 0 {
            return Err(DeError::expected(expected, Kind::Int));
        }
        self.input.bump()
    }

    /// The error for a well-formed `tag` of another kind than `expected`.
    fn mismatch(&self, expected: &str, tag: u8) -> DeError {
        match kind_of(tag) {
            Some(kind) => DeError::expected(expected, kind),
            None => self.input.unknown_tag(tag),
        }
    }

    fn open(&mut self, what: &str) -> De<usize> {
        let count = self.input.len(what)?;
        Reader::check_depth(self.depth, count)?;
        self.depth += 1;
        Ok(count)
    }

    /// Validates and discards one value whose enclosing containers number
    /// `depth`, still recording the keys it introduces.
    fn skip_value(&mut self, depth: usize) -> De<()> {
        let tag = self.input.bump()?;
        if tag & TAG_SMALL_U64 != 0 {
            return Ok(());
        }
        match tag {
            TAG_NULL | TAG_FALSE | TAG_TRUE => {}
            TAG_U64 | TAG_I64 => drop(self.input.varint()?),
            TAG_F64 => drop(self.input.f64()?),
            TAG_STR => drop(self.input.str("string")?),
            TAG_BYTES => {
                let count = self.input.len("byte sequence")?;
                self.input.exact(count)?;
            }
            TAG_SEQ => {
                let count = self.input.len("sequence")?;
                Reader::check_depth(depth, count)?;
                for _ in 0..count {
                    self.skip_value(depth + 1)?;
                }
            }
            TAG_MAP => {
                let count = self.input.len("map")?;
                Reader::check_depth(depth, count)?;
                for _ in 0..count {
                    self.input.key(&mut self.keys)?;
                    self.skip_value(depth + 1)?;
                }
            }
            other => return Err(self.input.unknown_tag(other)),
        }
        Ok(())
    }
}

fn kind_of(tag: u8) -> Option<Kind> {
    Some(match tag {
        TAG_NULL => Kind::Null,
        TAG_FALSE | TAG_TRUE => Kind::Bool,
        TAG_U64 | TAG_I64 | TAG_SMALL_U64.. => Kind::Int,
        TAG_F64 => Kind::Float,
        TAG_STR => Kind::Str,
        TAG_SEQ | TAG_BYTES => Kind::Seq,
        TAG_MAP => Kind::Map,
        _ => return None,
    })
}

impl<'de> Source<'de> for Decoder<'de> {
    fn peek(&mut self) -> De<Kind> {
        if self.packed > 0 {
            return Ok(Kind::Int);
        }
        let tag = self
            .input
            .peek()
            .ok_or_else(|| DeError::new(END_OF_INPUT))?;
        kind_of(tag).ok_or_else(|| unknown_tag_at(tag, self.input.pos))
    }

    fn null(&mut self) -> De<()> {
        match self.tag("null")? {
            TAG_NULL => Ok(()),
            other => Err(self.mismatch("null", other)),
        }
    }

    fn bool(&mut self) -> De<bool> {
        match self.tag("bool")? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            other => Err(self.mismatch("bool", other)),
        }
    }

    fn int(&mut self) -> De<i128> {
        let tag = self.input.bump()?;
        if self.packed > 0 {
            self.packed -= 1;
            return Ok(i128::from(tag));
        }
        match tag {
            TAG_SMALL_U64.. => Ok(i128::from(tag & 0x7F)),
            TAG_U64 => self.input.varint().map(i128::from),
            TAG_I64 => self.input.varint().map(|n| i128::from(unzigzag(n))),
            other => Err(self.mismatch("integer", other)),
        }
    }

    fn f64(&mut self) -> De<f64> {
        if self.packed == 0 && self.input.peek() == Some(TAG_F64) {
            self.input.pos += 1;
            return self.input.f64();
        }
        self.int().map(|n| n as f64)
    }

    fn str(&mut self) -> De<&'de str> {
        match self.tag("string")? {
            TAG_STR => self.input.str("string"),
            other => Err(self.mismatch("string", other)),
        }
    }

    fn bytes(&mut self) -> De<Option<&'de [u8]>> {
        if self.packed > 0 || self.input.peek() != Some(TAG_BYTES) {
            return Ok(None);
        }
        self.input.pos += 1;
        let count = self.input.len("byte sequence")?;
        self.input.exact(count).map(Some)
    }

    fn begin_seq(&mut self) -> De<usize> {
        match self.tag("sequence")? {
            TAG_SEQ => self.open("sequence"),
            TAG_BYTES => {
                self.packed = self.input.len("byte sequence")?;
                self.depth += 1;
                Ok(self.packed)
            }
            other => Err(self.mismatch("sequence", other)),
        }
    }

    fn end_seq(&mut self) {
        self.depth -= 1;
    }

    fn begin_map(&mut self) -> De<usize> {
        match self.tag("map")? {
            TAG_MAP => self.open("map"),
            other => Err(self.mismatch("map", other)),
        }
    }

    fn key(&mut self) -> De<&'de str> {
        self.input.key(&mut self.keys)
    }

    fn end_map(&mut self) {
        self.depth -= 1;
    }

    fn skip(&mut self) -> De<()> {
        if self.packed > 0 {
            self.packed -= 1;
            return self.input.bump().map(drop);
        }
        self.skip_value(self.depth)
    }

    fn absent<T: Deserialize>(&mut self) -> De<T> {
        let resume = std::mem::replace(
            &mut self.input,
            Reader {
                bytes: &[TAG_NULL],
                pos: 0,
            },
        );
        let value = T::deserialize(self);
        self.input = resume;
        value
    }
}

// ---------------------------------------------------------------------------
// Reference tree encoder and decoder
// ---------------------------------------------------------------------------

struct TreeEncoder {
    out: Vec<u8>,
    /// Per-message key dictionary: key string -> 1-based index.
    keys: HashMap<String, u64>,
}

impl TreeEncoder {
    fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.out.push(TAG_NULL),
            Value::Bool(false) => self.out.push(TAG_FALSE),
            Value::Bool(true) => self.out.push(TAG_TRUE),
            Value::U64(n) if *n <= 0x7F => self.out.push(TAG_SMALL_U64 | *n as u8),
            Value::U64(n) => {
                self.out.push(TAG_U64);
                write_varint(&mut self.out, *n);
            }
            Value::I64(n) => {
                self.out.push(TAG_I64);
                write_varint(&mut self.out, zigzag(*n));
            }
            Value::F64(x) => {
                self.out.push(TAG_F64);
                self.out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.out.push(TAG_STR);
                write_varint(&mut self.out, s.len() as u64);
                self.out.extend_from_slice(s.as_bytes());
            }
            Value::Seq(items) => {
                if !items.is_empty()
                    && items
                        .iter()
                        .all(|i| matches!(i, Value::U64(n) if *n <= 0xFF))
                {
                    self.out.push(TAG_BYTES);
                    write_varint(&mut self.out, items.len() as u64);
                    for item in items {
                        match item {
                            Value::U64(n) => self.out.push(*n as u8),
                            _ => unreachable!("checked above"),
                        }
                    }
                } else {
                    self.out.push(TAG_SEQ);
                    write_varint(&mut self.out, items.len() as u64);
                    for item in items {
                        self.write_value(item);
                    }
                }
            }
            Value::Map(entries) => {
                self.out.push(TAG_MAP);
                write_varint(&mut self.out, entries.len() as u64);
                for (key, value) in entries {
                    match self.keys.get(key) {
                        Some(&idx) => write_varint(&mut self.out, idx),
                        None => {
                            let idx = self.keys.len() as u64 + 1;
                            self.keys.insert(key.clone(), idx);
                            write_varint(&mut self.out, 0);
                            write_varint(&mut self.out, key.len() as u64);
                            self.out.extend_from_slice(key.as_bytes());
                        }
                    }
                    self.write_value(value);
                }
            }
        }
    }
}

struct TreeDecoder<'a> {
    input: Reader<'a>,
    /// Per-message key dictionary, in first-transmission order.
    keys: Vec<&'a str>,
}

impl TreeDecoder<'_> {
    fn read_value(&mut self, depth: usize) -> De<Value> {
        let tag = self.input.bump()?;
        if tag & TAG_SMALL_U64 != 0 {
            return Ok(Value::U64(u64::from(tag & 0x7F)));
        }
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_U64 => self.input.varint().map(Value::U64),
            TAG_I64 => self.input.varint().map(|n| Value::I64(unzigzag(n))),
            TAG_F64 => self.input.f64().map(Value::F64),
            TAG_STR => self.input.str("string").map(|s| Value::Str(s.to_string())),
            TAG_SEQ => {
                let count = self.input.len("sequence")?;
                Reader::check_depth(depth, count)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.read_value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_BYTES => {
                let count = self.input.len("byte sequence")?;
                let bytes = self.input.exact(count)?;
                Ok(Value::Seq(
                    bytes.iter().map(|&b| Value::U64(u64::from(b))).collect(),
                ))
            }
            TAG_MAP => {
                let count = self.input.len("map")?;
                Reader::check_depth(depth, count)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.input.key(&mut self.keys)?.to_string();
                    entries.push((key, self.read_value(depth + 1)?));
                }
                Ok(Value::Map(entries))
            }
            other => Err(self.input.unknown_tag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: &Value) {
        let bytes = value_to_vec(v);
        let back = value_from_slice(&bytes).expect("decode");
        assert_eq!(&back, v, "round-trip mismatch for encoding {bytes:?}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::U64(0),
            Value::U64(127),
            Value::U64(128),
            Value::U64(u64::MAX),
            Value::I64(0),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(0.1),
            Value::F64(-1.5e300),
            Value::Str(String::new()),
            Value::Str("unicode ✓ épée 😀".into()),
        ] {
            round_trip_value(&v);
        }
    }

    #[test]
    fn small_ints_are_one_byte() {
        assert_eq!(value_to_vec(&Value::U64(0)), vec![0x80]);
        assert_eq!(value_to_vec(&Value::U64(127)), vec![0xFF]);
        assert_eq!(value_to_vec(&Value::U64(128)), vec![TAG_U64, 0x80, 0x01]);
    }

    #[test]
    fn byte_seqs_are_packed() {
        let v = Value::Seq((0..=255u64).map(Value::U64).collect());
        let bytes = value_to_vec(&v);
        assert_eq!(bytes[0], TAG_BYTES);
        // tag + 2-byte varint count + 256 raw bytes.
        assert_eq!(bytes.len(), 1 + 2 + 256);
        round_trip_value(&v);
        // A 256-valued element forces the general Seq encoding.
        let v = Value::Seq(vec![Value::U64(256)]);
        assert_eq!(value_to_vec(&v)[0], TAG_SEQ);
        round_trip_value(&v);
        // The empty Seq stays a Seq.
        let v = Value::Seq(vec![]);
        assert_eq!(value_to_vec(&v), vec![TAG_SEQ, 0]);
        round_trip_value(&v);
    }

    #[test]
    fn repeated_map_keys_are_interned() {
        let entry = Value::Map(vec![
            ("alpha".into(), Value::U64(1)),
            ("beta".into(), Value::U64(2)),
        ]);
        let seq = Value::Seq(vec![entry.clone(); 10]);
        let bytes = value_to_vec(&seq);
        // Each key's bytes appear exactly once in the encoding.
        let count = |needle: &[u8]| bytes.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count(b"alpha"), 1);
        assert_eq!(count(b"beta"), 1);
        round_trip_value(&seq);
    }

    #[test]
    fn nested_containers_round_trip() {
        let v = Value::Map(vec![
            (
                "seq".into(),
                Value::Seq(vec![Value::Null, Value::Bool(true), Value::I64(-7)]),
            ),
            (
                "map".into(),
                Value::Map(vec![("seq".into(), Value::Str("shared key".into()))]),
            ),
        ]);
        round_trip_value(&v);
    }

    #[test]
    fn typed_round_trip_matches_json_shim() {
        let v = vec![1u64, 2, 300];
        let bytes = to_vec(&v).unwrap();
        assert_eq!(from_slice::<Vec<u64>>(&bytes).unwrap(), v);
        let o: Option<String> = Some("x".into());
        let bytes = to_vec(&o).unwrap();
        assert_eq!(from_slice::<Option<String>>(&bytes).unwrap(), o);
    }

    /// The same malformed bytes through the typed entry point and through the
    /// reference decoder: both must refuse.
    fn assert_rejected<T: DeserializeOwned + fmt::Debug>(input: &[u8]) {
        assert!(from_slice::<T>(input).is_err(), "typed: {input:?}");
        assert!(value_from_slice(input).is_err(), "tree: {input:?}");
    }

    #[test]
    fn malformed_input_is_rejected() {
        use std::time::Duration;
        // Truncated varint.
        assert_rejected::<u64>(&[TAG_U64, 0x80]);
        // Truncated string.
        assert_rejected::<String>(&[TAG_STR, 5, b'a']);
        // Length exceeding input: sequence, packed bytes, map.
        assert_rejected::<Vec<u64>>(&[TAG_SEQ, 0xFF, 0x7F]);
        assert_rejected::<Vec<u8>>(&[TAG_BYTES, 0xFF, 0x7F]);
        assert_rejected::<Duration>(&[TAG_MAP, 0xFF, 0x7F]);
        // Unknown tag, where a value is read, peeked at and skipped.
        assert_rejected::<u64>(&[0x0A]);
        assert_rejected::<Option<u64>>(&[0x0A]);
        assert_rejected::<Duration>(&[TAG_MAP, 1, 0, 1, b'x', 0x0A]);
        // Bad key reference.
        assert_rejected::<Duration>(&[TAG_MAP, 1, 2, TAG_NULL]);
        // Invalid UTF-8 in a string, a key, and a skipped string.
        assert_rejected::<String>(&[TAG_STR, 1, 0xFF]);
        assert_rejected::<Duration>(&[TAG_MAP, 1, 0, 1, 0xFF, TAG_NULL]);
        assert_rejected::<Duration>(&[TAG_MAP, 1, 0, 1, b'x', TAG_STR, 1, 0xFF]);
        // Trailing bytes.
        assert_rejected::<()>(&[TAG_NULL, TAG_NULL]);
        // Empty input.
        assert_rejected::<()>(&[]);
        // Varint overflowing u64 (11 continuation bytes).
        let mut buf = vec![TAG_U64];
        buf.extend_from_slice(&[0xFF; 11]);
        assert_rejected::<u64>(&buf);
        // Well-formed, but not the type asked for (typed entry point only).
        assert!(from_slice::<bool>(&[TAG_NULL]).is_err());
        assert!(from_slice::<(u8, u8)>(&[TAG_BYTES, 3, 1, 2, 3]).is_err());
        assert!(from_slice::<Vec<bool>>(&[TAG_BYTES, 1, 1]).is_err());
    }

    /// A recursive type, so that typed decoding can nest as deep as its input.
    #[derive(Debug, PartialEq)]
    struct Nest(Vec<Nest>);

    impl Deserialize for Nest {
        fn deserialize<'de, S: Source<'de>>(src: &mut S) -> De<Self> {
            Vec::deserialize(src).map(Nest)
        }
    }

    fn nested_seqs(levels: usize) -> Vec<u8> {
        let mut bytes = [TAG_SEQ, 1].repeat(levels - 1);
        bytes.extend_from_slice(&[TAG_SEQ, 0]);
        bytes
    }

    #[test]
    fn deep_nesting_is_rejected() {
        // The innermost of `n` sequences sits at depth `n - 1`.
        let deepest_allowed = nested_seqs(MAX_DEPTH + 1);
        assert!(from_slice::<Nest>(&deepest_allowed).is_ok());
        assert!(value_from_slice(&deepest_allowed).is_ok());
        assert_rejected::<Nest>(&nested_seqs(MAX_DEPTH + 2));
        assert_rejected::<Nest>(&nested_seqs(200));
        // Depth also counts inside a field the type does not know and skips:
        // `{x: <nested>, secs: 1, nanos: 2}` puts the nest one level down.
        let with_unknown_field = |levels: usize| {
            let mut bytes = vec![TAG_MAP, 3, 0, 1, b'x'];
            bytes.extend_from_slice(&nested_seqs(levels));
            bytes.extend_from_slice(b"\x00\x04secs\x81\x00\x05nanos\x82");
            bytes
        };
        assert_eq!(
            from_slice::<std::time::Duration>(&with_unknown_field(MAX_DEPTH)).unwrap(),
            std::time::Duration::new(1, 2)
        );
        assert_rejected::<std::time::Duration>(&with_unknown_field(MAX_DEPTH + 1));
    }

    #[test]
    fn zigzag_is_an_involution_on_edges() {
        for n in [0i64, -1, 1, i64::MIN, i64::MAX, -1234567890123] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }
}
