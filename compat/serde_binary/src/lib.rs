//! In-tree compact binary data format for the serde compatibility shim.
//!
//! This is the deployed runtime's wire codec (see `WIRE.md` at the repo root
//! for the byte-for-byte specification): a length-delimited encoding of the
//! shim's data model, directed by the Rust types on both ends and built for
//! small frames and cheap encode/decode:
//!
//! * a struct is a sequence of its fields in declaration order, an enum
//!   variant its declaration index — no field or variant name is ever
//!   written, and the decoder dispatches on integers, not strings;
//! * all lengths and unsigned integers are LEB128 varints; signed integers
//!   are zigzag-mapped first;
//! * unsigned integers `0..=127` are a single byte (the tag itself), and so
//!   is the header of a variant with data whose index is below 64;
//! * non-empty sequences whose elements are all unsigned integers `<= 255` —
//!   `Vec<u8>`/`Bytes` payloads, but also short lists of small ids and
//!   structs of small integers — are packed as raw bytes.
//!
//! Every value still starts with a type tag, so a decoder can validate and
//! skip a value it has no field for without knowing its type.
//!
//! [`to_vec`] / [`encode_into`] and [`from_slice`] stream typed values
//! straight to and from those bytes (a `serde` sink and source; no
//! intermediate tree).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

use serde::de::{DeError, DeserializeOwned, Key, Kind, Source};
use serde::ser::Sink;
use serde::Serialize;

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
/// Type tag for a sequence (and a struct); payload is a varint count +
/// elements.
const TAG_SEQ: u8 = 0x07;
/// Type tag for a packed byte sequence: a non-empty sequence whose elements
/// are all unsigned integers `<= 255`, stored as a varint count + raw bytes.
const TAG_BYTES: u8 = 0x09;
/// Type tag for an enum variant with data whose index is 64 or more; payload
/// is the varint index + the data as one value.
const TAG_VARIANT: u8 = 0x0A;
/// Tags `0x40..=0x7F` open the variant `i <= 63` with data as `0x40 | i`;
/// the data follows as one value.
const TAG_SMALL_VARIANT: u8 = 0x40;
/// Tags `0x80..=0xFF` encode the unsigned integer `n <= 127` inline as
/// `0x80 | n`.
const TAG_SMALL_U64: u8 = 0x80;

/// Maximum nesting depth accepted by the decoder, guarding the stack against
/// adversarial input from the network.
const MAX_DEPTH: usize = 128;

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

/// What the decoder returns internally: the serde shim's error, which
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
        packed: 0,
        depth: 0,
    };
    let value = T::deserialize(&mut dec)?;
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
// Encoder
// ---------------------------------------------------------------------------

struct Encoder<'o> {
    out: &'o mut Vec<u8>,
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

    /// A struct is the sequence of its fields, in declaration order.
    fn begin_struct(&mut self, len: usize) {
        self.begin_seq(len);
    }

    fn field(&mut self, _name: &'static str) {}

    fn end_struct(&mut self) {
        self.end_seq();
    }

    fn unit_variant(&mut self, index: u32, _name: &'static str) {
        self.u64(u64::from(index));
    }

    fn begin_variant(&mut self, index: u32, _name: &'static str) {
        if index < 0x40 {
            self.tag(TAG_SMALL_VARIANT | index as u8);
        } else {
            self.tag(TAG_VARIANT);
            write_varint(self.out, u64::from(index));
        }
    }

    fn end_variant(&mut self) {}
}

// ---------------------------------------------------------------------------
// Reading primitives (WIRE.md §5.5 limits)
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

    fn str(&mut self) -> De<&'a str> {
        let len = self.len("string")?;
        std::str::from_utf8(self.exact(len)?)
            .map_err(|e| DeError::new(format!("invalid UTF-8 in string: {e}")))
    }

    fn f64(&mut self) -> De<f64> {
        let bytes = self.exact(8)?;
        let bits = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
        Ok(f64::from_bits(bits))
    }

    /// The index of a variant with data, whose tag was just consumed.
    fn variant_index(&mut self, tag: u8) -> De<u64> {
        if tag == TAG_VARIANT {
            self.varint()
        } else {
            Ok(u64::from(tag & !TAG_SMALL_VARIANT))
        }
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
// Decoder
// ---------------------------------------------------------------------------

struct Decoder<'de> {
    input: Reader<'de>,
    /// Raw bytes still to hand out as integers from the `Bytes` sequence
    /// opened by `begin_seq` (it holds nothing else, so nothing nests in it).
    packed: usize,
    /// Containers (and variants with data) currently open.
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

    /// Enters a container of `count` children (a variant with data has one).
    fn open(&mut self, count: usize) -> De<()> {
        Reader::check_depth(self.depth, count)?;
        self.depth += 1;
        Ok(())
    }

    /// Validates and discards one value whose enclosing containers number
    /// `depth`.
    fn skip_value(&mut self, depth: usize) -> De<()> {
        let tag = self.input.bump()?;
        if tag & TAG_SMALL_U64 != 0 {
            return Ok(());
        }
        match tag {
            TAG_NULL | TAG_FALSE | TAG_TRUE => {}
            TAG_U64 | TAG_I64 => drop(self.input.varint()?),
            TAG_F64 => drop(self.input.f64()?),
            TAG_STR => drop(self.input.str()?),
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
            TAG_VARIANT | TAG_SMALL_VARIANT..=0x7F => {
                self.input.variant_index(tag)?;
                Reader::check_depth(depth, 1)?;
                self.skip_value(depth + 1)?;
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
        TAG_VARIANT | TAG_SMALL_VARIANT..=0x7F => Kind::Variant,
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
            TAG_STR => self.input.str(),
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
            TAG_SEQ => {
                let count = self.input.len("sequence")?;
                self.open(count)?;
                Ok(count)
            }
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

    fn begin_struct(&mut self) -> De<usize> {
        self.begin_seq()
    }

    fn field(&mut self, position: usize) -> De<Key<'de>> {
        Ok(Key::Index(position))
    }

    fn end_struct(&mut self) {
        self.end_seq();
    }

    /// A variant with data has its own tag; a unit variant is its index as
    /// an integer. An index beyond `usize` reads as `usize::MAX`, which no
    /// enum has, so the type reports it as out of range.
    fn begin_enum(&mut self, name: &'static str) -> De<(Key<'de>, bool)> {
        let index = |n: u64| Key::Index(usize::try_from(n).unwrap_or(usize::MAX));
        match self.peek()? {
            Kind::Variant => {
                let tag = self.input.bump()?;
                let variant = self.input.variant_index(tag)?;
                self.open(1)?;
                Ok((index(variant), true))
            }
            Kind::Int => {
                let variant = self.int()?;
                Ok((index(u64::try_from(variant).unwrap_or(u64::MAX)), false))
            }
            other => Err(DeError::expected(&format!("enum {name}"), other)),
        }
    }

    fn end_variant(&mut self) {
        self.depth -= 1;
    }

    fn skip(&mut self) -> De<()> {
        if self.packed > 0 {
            self.packed -= 1;
            return self.input.bump().map(drop);
        }
        self.skip_value(self.depth)
    }

    fn absent<T: serde::Deserialize>(&mut self) -> De<T> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de::DeserializeOwned;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

    fn round_trip<T: Serialize + DeserializeOwned + PartialEq + fmt::Debug>(v: &T) {
        let bytes = to_vec(v).expect("encode");
        let back: T = from_slice(&bytes).expect("decode");
        assert_eq!(&back, v, "round-trip mismatch for encoding {bytes:?}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&());
        round_trip(&false);
        round_trip(&true);
        for n in [0u64, 127, 128, u64::MAX] {
            round_trip(&n);
        }
        for n in [0i64, -1, i64::MIN, i64::MAX] {
            round_trip(&n);
        }
        for x in [0.1f64, -1.5e300] {
            round_trip(&x);
        }
        round_trip(&String::new());
        round_trip(&"unicode ✓ épée 😀".to_string());
    }

    #[test]
    fn small_ints_are_one_byte() {
        assert_eq!(to_vec(&0u64).unwrap(), vec![0x80]);
        assert_eq!(to_vec(&127u64).unwrap(), vec![0xFF]);
        assert_eq!(to_vec(&128u64).unwrap(), vec![TAG_U64, 0x80, 0x01]);
    }

    #[test]
    fn byte_seqs_are_packed() {
        let v: Vec<u64> = (0..=255).collect();
        let bytes = to_vec(&v).unwrap();
        assert_eq!(bytes[0], TAG_BYTES);
        // tag + 2-byte varint count + 256 raw bytes.
        assert_eq!(bytes.len(), 1 + 2 + 256);
        round_trip(&v);
        // A 256-valued element forces the general Seq encoding.
        assert_eq!(to_vec(&vec![256u64]).unwrap()[0], TAG_SEQ);
        round_trip(&vec![256u64]);
        // The empty Seq stays a Seq.
        assert_eq!(to_vec(&Vec::<u64>::new()).unwrap(), vec![TAG_SEQ, 0]);
        round_trip(&Vec::<u64>::new());
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Entry {
        alpha: u64,
        beta: Option<String>,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Empty,
        Point(u64, u64),
        Labelled { label: String, entries: Vec<Entry> },
    }

    /// A struct is its fields in declaration order and a variant its index:
    /// no name reaches the bytes, however often the type repeats.
    #[test]
    fn struct_and_variant_names_are_not_written() {
        let entry = Entry {
            alpha: 1,
            beta: None,
        };
        assert_eq!(to_vec(&entry).unwrap(), [TAG_SEQ, 2, 0x81, TAG_NULL]);
        assert_eq!(to_vec(&Shape::Empty).unwrap(), [0x80]);
        assert_eq!(
            to_vec(&Shape::Point(1, 300)).unwrap(),
            [0x41, TAG_SEQ, 2, 0x81, TAG_U64, 0xAC, 0x02]
        );
        let shape = Shape::Labelled {
            label: "x".into(),
            entries: vec![entry; 10],
        };
        let bytes = to_vec(&shape).unwrap();
        for name in ["alpha", "beta", "label", "entries", "Labelled", "Entry"] {
            let found = bytes.windows(name.len()).any(|w| w == name.as_bytes());
            assert!(!found, "{name} on the wire: {bytes:?}");
        }
        assert_eq!(bytes[..3], [0x42, TAG_SEQ, 2]);
        round_trip(&shape);
    }

    /// Variant 200 of some enum, with `null` as its data.
    struct FarVariant;

    impl Serialize for FarVariant {
        fn serialize<S: Sink>(&self, sink: &mut S) {
            sink.begin_variant(200, "FarVariant");
            sink.null();
            sink.end_variant();
        }
    }

    /// Indices up to 63 ride in the header byte; from 64 on the header is
    /// `0x0A` and a varint, and a decoder skips either form.
    #[test]
    fn large_variant_indices_take_the_varint_form() {
        let bytes = to_vec(&FarVariant).unwrap();
        assert_eq!(bytes, [TAG_VARIANT, 0xC8, 0x01, TAG_NULL]);
        let trailing = [&[TAG_SEQ, 3, 0x81, 0x82][..], &bytes].concat();
        assert_eq!(
            from_slice::<Duration>(&trailing).unwrap(),
            Duration::new(1, 2)
        );
    }

    #[test]
    fn nested_containers_round_trip() {
        round_trip(&vec![
            Shape::Empty,
            Shape::Point(0, u64::MAX),
            Shape::Labelled {
                label: "shared".into(),
                entries: vec![Entry {
                    alpha: 7,
                    beta: Some("inner".into()),
                }],
            },
        ]);
        round_trip(&(vec![None, Some(-7i64)], Duration::new(3, 999_999_999)));
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

    fn assert_rejected<T: DeserializeOwned + fmt::Debug>(input: &[u8]) {
        assert!(from_slice::<T>(input).is_err(), "{input:?}");
    }

    #[test]
    fn malformed_input_is_rejected() {
        // Truncated varint.
        assert_rejected::<u64>(&[TAG_U64, 0x80]);
        // Truncated string.
        assert_rejected::<String>(&[TAG_STR, 5, b'a']);
        // Length exceeding input: sequence, packed bytes, struct.
        assert_rejected::<Vec<u64>>(&[TAG_SEQ, 0xFF, 0x7F]);
        assert_rejected::<Vec<u8>>(&[TAG_BYTES, 0xFF, 0x7F]);
        assert_rejected::<Duration>(&[TAG_SEQ, 0xFF, 0x7F]);
        // Unknown tags (0x08 was the map tag of the self-describing codec),
        // where a value is read, peeked at and skipped.
        assert_rejected::<u64>(&[0x08]);
        assert_rejected::<Option<u64>>(&[0x0B]);
        assert_rejected::<Duration>(&[TAG_SEQ, 3, 0x81, 0x82, 0x3F]);
        // A variant that is truncated, out of range, or of the wrong shape.
        assert_rejected::<Shape>(&[0x42]);
        assert_rejected::<Shape>(&[0x83]);
        assert_rejected::<Shape>(&[TAG_VARIANT, 0x80, 0x01, TAG_NULL]);
        assert_rejected::<Shape>(&[0x40, TAG_NULL]);
        assert_rejected::<Shape>(&[0x81]);
        // Invalid UTF-8 in a string and in a skipped string.
        assert_rejected::<String>(&[TAG_STR, 1, 0xFF]);
        assert_rejected::<Duration>(&[TAG_SEQ, 3, 0x81, 0x82, TAG_STR, 1, 0xFF]);
        // Trailing bytes.
        assert_rejected::<()>(&[TAG_NULL, TAG_NULL]);
        // Empty input.
        assert_rejected::<()>(&[]);
        // Varint overflowing u64 (11 continuation bytes).
        let mut buf = vec![TAG_U64];
        buf.extend_from_slice(&[0xFF; 11]);
        assert_rejected::<u64>(&buf);
        // Well-formed, but not the type asked for.
        assert_rejected::<bool>(&[TAG_NULL]);
        assert_rejected::<(u8, u8)>(&[TAG_BYTES, 3, 1, 2, 3]);
        assert_rejected::<Vec<bool>>(&[TAG_BYTES, 1, 1]);
    }

    /// A recursive type, so that typed decoding can nest as deep as its input.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nest(Vec<Nest>);

    fn nested_seqs(levels: usize) -> Vec<u8> {
        let mut bytes = [TAG_SEQ, 1].repeat(levels - 1);
        bytes.extend_from_slice(&[TAG_SEQ, 0]);
        bytes
    }

    #[test]
    fn deep_nesting_is_rejected() {
        // The innermost of `n` sequences sits at depth `n - 1`.
        assert!(from_slice::<Nest>(&nested_seqs(MAX_DEPTH + 1)).is_ok());
        assert_rejected::<Nest>(&nested_seqs(MAX_DEPTH + 2));
        assert_rejected::<Nest>(&nested_seqs(200));
        // Depth also counts inside an element the type does not know and
        // skips: `[1, 2, <nested>]` puts the nest one level down.
        let with_extra_element = |levels: usize| {
            let mut bytes = vec![TAG_SEQ, 3, 0x81, 0x82];
            bytes.extend_from_slice(&nested_seqs(levels));
            bytes
        };
        assert_eq!(
            from_slice::<Duration>(&with_extra_element(MAX_DEPTH)).unwrap(),
            Duration::new(1, 2)
        );
        assert_rejected::<Duration>(&with_extra_element(MAX_DEPTH + 1));
    }

    #[test]
    fn zigzag_is_an_involution_on_edges() {
        for n in [0i64, -1, 1, i64::MIN, i64::MAX, -1234567890123] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }
}
