//! Serialisation: Rust values drive a [`Sink`] with the events of the data
//! model, one call per scalar and container boundary.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::time::Duration;

/// The receiving end of a serialisation: a data format (the binary codec
/// writes frame bytes directly) or the [`Value`](crate::value::Value) tree
/// builder behind JSON.
///
/// Callers must emit well-formed streams: exactly `len` values between
/// `begin_seq(len)` and `end_seq`, exactly `len` `field` + value pairs
/// between `begin_struct(len)` and `end_struct`, and exactly one value
/// between `begin_variant` and `end_variant`.
///
/// Structs and enums carry both their names and their positions (field
/// declaration order, variant index), and each format keeps the half it
/// needs: JSON prints the names, the binary codec only the positions.
pub trait Sink {
    /// `null`; also the encoding of `None` and of unit types.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A non-negative integer.
    fn u64(&mut self, v: u64);
    /// A negative integer (non-negative ones always go through [`Sink::u64`]).
    fn i64(&mut self, v: i64);
    /// A floating-point number.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// A sequence of `u8`s: exactly `begin_seq(v.len())`, one `u64` per byte,
    /// `end_seq`, which formats with a packed byte form can write in one copy.
    fn bytes(&mut self, v: &[u8]) {
        self.begin_seq(v.len());
        for &b in v {
            self.u64(u64::from(b));
        }
        self.end_seq();
    }
    /// Opens a sequence of `len` values.
    fn begin_seq(&mut self, len: usize);
    /// Closes the innermost open sequence.
    fn end_seq(&mut self);
    /// Opens a struct of `len` fields, which follow in declaration order.
    fn begin_struct(&mut self, len: usize);
    /// The name of the struct field whose value comes next.
    fn field(&mut self, name: &'static str);
    /// Closes the innermost open struct.
    fn end_struct(&mut self);
    /// An enum variant without data: its declaration index and its name.
    fn unit_variant(&mut self, index: u32, name: &'static str);
    /// Opens an enum variant with data (its declaration index and its name),
    /// which follows as exactly one value.
    fn begin_variant(&mut self, index: u32, name: &'static str);
    /// Closes the innermost open variant.
    fn end_variant(&mut self);
}

/// A type that can stream itself into a [`Sink`].
///
/// Implemented by `#[derive(Serialize)]` for structs and (externally tagged)
/// enums, and manually for primitives and standard containers below.
pub trait Serialize {
    /// Streams `self` into `sink` as exactly one value.
    fn serialize<S: Sink>(&self, sink: &mut S);

    /// Streams a slice of `Self` as one sequence. Stable Rust has no
    /// specialisation, so this hook is how `u8` routes `Vec<u8>` and `[u8]`
    /// to [`Sink::bytes`]; nothing else overrides it.
    fn serialize_slice<S: Sink>(items: &[Self], sink: &mut S)
    where
        Self: Sized,
    {
        serialize_iter(items.len(), items, sink);
    }
}

fn serialize_iter<'a, T: Serialize + 'a, S: Sink>(
    len: usize,
    items: impl IntoIterator<Item = &'a T>,
    sink: &mut S,
) {
    sink.begin_seq(len);
    for item in items {
        item.serialize(sink);
    }
    sink.end_seq();
}

impl Serialize for bool {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self);
    }
}

impl Serialize for u8 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.u64(u64::from(*self));
    }

    fn serialize_slice<S: Sink>(items: &[u8], sink: &mut S) {
        sink.bytes(items);
    }
}

macro_rules! impl_ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.u64(*self as u64);
            }
        }
    )*};
}
impl_ser_unsigned!(u16, u32, u64, usize);

macro_rules! impl_ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                let v = *self as i64;
                if v >= 0 {
                    sink.u64(v as u64);
                } else {
                    sink.i64(v);
                }
            }
        }
    )*};
}
impl_ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(f64::from(*self));
    }
}

impl Serialize for f64 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(*self);
    }
}

impl Serialize for char {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Serialize for String {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Serialize for str {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Serialize for () {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.null();
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            None => sink.null(),
            Some(v) => v.serialize(sink),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        T::serialize_slice(self, sink);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        T::serialize_slice(self, sink);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        T::serialize_slice(self, sink);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_iter(self.len(), self, sink);
    }
}

macro_rules! impl_ser_tuple {
    ($n:expr, $($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.begin_seq($n);
                $(self.$idx.serialize(sink);)+
                sink.end_seq();
            }
        }
    };
}
impl_ser_tuple!(2, A: 0, B: 1);
impl_ser_tuple!(3, A: 0, B: 1, C: 2);
impl_ser_tuple!(4, A: 0, B: 1, C: 2, D: 3);

fn serialize_pairs<'a, K: Serialize + 'a, V: Serialize + 'a, S: Sink>(
    len: usize,
    pairs: impl IntoIterator<Item = (&'a K, &'a V)>,
    sink: &mut S,
) {
    sink.begin_seq(len);
    for (k, v) in pairs {
        sink.begin_seq(2);
        k.serialize(sink);
        v.serialize(sink);
        sink.end_seq();
    }
    sink.end_seq();
}

/// Maps and sets are encoded as sequences (of `[key, value]` pairs for maps),
/// which sidesteps JSON's string-only object keys and round-trips any
/// `Serialize` key type.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_pairs(self.len(), self, sink);
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_pairs(self.len(), self, sink);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_iter(self.len(), self, sink);
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_iter(self.len(), self, sink);
    }
}

/// Durations use serde's standard `{secs, nanos}` struct encoding.
impl Serialize for Duration {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_struct(2);
        sink.field("secs");
        sink.u64(self.as_secs());
        sink.field("nanos");
        sink.u64(u64::from(self.subsec_nanos()));
        sink.end_struct();
    }
}
