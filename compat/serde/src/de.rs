//! Deserialisation: Rust values pull the events of the data model from a
//! [`Source`], one call per scalar and container boundary.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::time::Duration;

/// The kind of the next value in a [`Source`], as seen by [`Source::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// A boolean.
    Bool,
    /// A signed or unsigned integer.
    Int,
    /// A floating-point number.
    Float,
    /// A string.
    Str,
    /// A sequence.
    Seq,
    /// A map (a struct or a variant with data, in a format that names them).
    Map,
    /// An enum variant with data, in a format that numbers variants.
    Variant,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Int => "integer",
            Kind::Float => "float",
            Kind::Str => "string",
            Kind::Seq => "sequence",
            Kind::Map => "map",
            Kind::Variant => "variant",
        })
    }
}

/// An error produced while deserialising into a Rust type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }

    /// Creates a "wrong kind" error naming what was expected and found.
    pub fn expected(what: &str, found: Kind) -> Self {
        DeError::new(format!("expected {what}, found {found}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Which struct field or enum variant the input holds next: its declaration
/// position, from a format that writes positions, or its name, from one that
/// writes names. `#[derive(Deserialize)]` maps a name to the position with a
/// generated `match`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key<'de> {
    /// The field's or variant's declaration index.
    Index(usize),
    /// The field's or variant's name.
    Name(&'de str),
}

/// The providing end of a deserialisation: a data format (the binary codec
/// reads frame bytes directly) or a cursor over a
/// [`Value`](crate::value::Value) tree parsed from JSON.
///
/// Every reading method consumes exactly one value and fails, consuming
/// nothing it can be relied on for, when the next value has another kind.
/// Strings and names borrow from the input (`'de`); nothing is allocated to
/// hand them out.
pub trait Source<'de> {
    /// The kind of the next value, without consuming it.
    fn peek(&mut self) -> Result<Kind, DeError>;
    /// Consumes a `null`.
    fn null(&mut self) -> Result<(), DeError>;
    /// Consumes a boolean.
    fn bool(&mut self) -> Result<bool, DeError>;
    /// Consumes an integer of either sign.
    fn int(&mut self) -> Result<i128, DeError>;
    /// Consumes a number; integers convert to the nearest float.
    fn f64(&mut self) -> Result<f64, DeError>;
    /// Consumes a string.
    fn str(&mut self) -> Result<&'de str, DeError>;
    /// Consumes a whole sequence of `u8`s if the input holds the next value
    /// in a packed byte form; `Ok(None)` (nothing consumed) if it does not,
    /// in which case the caller reads it as an ordinary sequence.
    fn bytes(&mut self) -> Result<Option<&'de [u8]>, DeError>;
    /// Opens a sequence and returns its element count; the caller reads
    /// exactly that many values, then calls [`Source::end_seq`].
    fn begin_seq(&mut self) -> Result<usize, DeError>;
    /// Closes the innermost open sequence.
    fn end_seq(&mut self);
    /// Opens a struct and returns its entry count; the caller reads exactly
    /// that many [`Source::field`] + value pairs, then calls
    /// [`Source::end_struct`].
    fn begin_struct(&mut self) -> Result<usize, DeError>;
    /// Which field the entry at `position` (counted from 0 in this struct)
    /// holds.
    fn field(&mut self, position: usize) -> Result<Key<'de>, DeError>;
    /// Closes the innermost open struct.
    fn end_struct(&mut self);
    /// Reads which variant of the enum `name` comes next, and whether its
    /// data follows; if it does, the caller reads exactly one value, then
    /// calls [`Source::end_variant`].
    fn begin_enum(&mut self, name: &'static str) -> Result<(Key<'de>, bool), DeError>;
    /// Closes the innermost open variant.
    fn end_variant(&mut self);
    /// Consumes one value of any kind (an unknown field), still validating it.
    fn skip(&mut self) -> Result<(), DeError>;
    /// Reads a `T` for a struct field the input does not have, as if it held
    /// `null` there: `Option` fields become `None`, required ones fail.
    fn absent<T: Deserialize>(&mut self) -> Result<T, DeError>;
}

/// A type that can rebuild itself from a [`Source`].
///
/// Implemented by `#[derive(Deserialize)]` for structs and (externally
/// tagged) enums, and manually for primitives and standard containers below.
/// Unlike real serde the `'de` lifetime stays on the method: this shim always
/// produces owned values, which is all the workspace needs.
pub trait Deserialize: Sized {
    /// Reads exactly one value from `src` as `Self`.
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError>;

    /// Reads one sequence as a `Vec<Self>`. Stable Rust has no
    /// specialisation, so this hook is how `u8` takes a packed byte sequence
    /// in one copy ([`Source::bytes`]); nothing else overrides it.
    fn deserialize_vec<'de, S: Source<'de>>(src: &mut S) -> Result<Vec<Self>, DeError> {
        read_vec(src)
    }
}

/// Most bytes a sequence reserves ahead of reading its elements.
const MAX_PREALLOC: usize = 64 * 1024;

/// Reads one sequence element by element.
fn read_vec<'de, S: Source<'de>, T: Deserialize>(src: &mut S) -> Result<Vec<T>, DeError> {
    let len = src.begin_seq()?;
    // `len` comes from the input and a source bounds it only by the bytes
    // left, so cap what is reserved before any element has been read.
    let cap = MAX_PREALLOC / std::mem::size_of::<T>().max(1);
    let mut items = Vec::with_capacity(len.min(cap));
    for _ in 0..len {
        items.push(T::deserialize(src)?);
    }
    src.end_seq();
    Ok(items)
}

/// Marker for deserialisable types without borrowed data.
///
/// In this shim every [`Deserialize`] type is owned, so the marker is a
/// blanket alias kept for source compatibility with real serde bounds.
pub trait DeserializeOwned: Deserialize {}
impl<T: Deserialize> DeserializeOwned for T {}

/// Reads an integer of either sign into `T`, refusing what does not fit.
fn read_int<'de, S: Source<'de>, T: TryFrom<i128>>(src: &mut S) -> Result<T, DeError> {
    let n = src.int()?;
    T::try_from(n).map_err(|_| {
        DeError::new(format!(
            "integer {n} out of range for {}",
            std::any::type_name::<T>()
        ))
    })
}

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
                read_int(src)
            }
        }
    )*};
}
impl_de_int!(u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for u8 {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        read_int(src)
    }

    fn deserialize_vec<'de, S: Source<'de>>(src: &mut S) -> Result<Vec<u8>, DeError> {
        match src.bytes()? {
            Some(bytes) => Ok(bytes.to_vec()),
            None => read_vec(src),
        }
    }
}

impl Deserialize for bool {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        src.bool()
    }
}

impl Deserialize for f64 {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        src.f64()
    }
}

impl Deserialize for f32 {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        src.f64().map(|x| x as f32)
    }
}

impl Deserialize for char {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        let mut chars = src.str()?.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::new("expected single-character string")),
        }
    }
}

impl Deserialize for String {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        src.str().map(str::to_string)
    }
}

impl Deserialize for () {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        src.null()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        T::deserialize(src).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        if src.peek()? == Kind::Null {
            src.null()?;
            Ok(None)
        } else {
            T::deserialize(src).map(Some)
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        T::deserialize_vec(src)
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        T::deserialize_vec(src).map(VecDeque::from)
    }
}

macro_rules! impl_de_tuple {
    ($n:expr, $($name:ident),+) => {
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
                let len = src.begin_seq()?;
                if len != $n {
                    return Err(DeError::new(format!(
                        "expected {}-tuple, found sequence of {len}", $n
                    )));
                }
                let tuple = ($($name::deserialize(src)?,)+);
                src.end_seq();
                Ok(tuple)
            }
        }
    };
}
impl_de_tuple!(2, A, B);
impl_de_tuple!(3, A, B, C);
impl_de_tuple!(4, A, B, C, D);

/// Reads one sequence into any collection, element by element.
fn collect_seq<'de, S: Source<'de>, T: Deserialize, C: FromIterator<T>>(
    src: &mut S,
) -> Result<C, DeError> {
    let len = src.begin_seq()?;
    let items = (0..len)
        .map(|_| T::deserialize(src))
        .collect::<Result<C, DeError>>()?;
    src.end_seq();
    Ok(items)
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        collect_seq::<S, (K, V), Self>(src)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        collect_seq::<S, (K, V), Self>(src)
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        collect_seq::<S, T, Self>(src)
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        collect_seq::<S, T, Self>(src)
    }
}

impl Deserialize for Duration {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        let (mut secs, mut nanos) = (None, None);
        for position in 0..src.begin_struct()? {
            match src.field(position)? {
                Key::Index(0) | Key::Name("secs") if secs.is_none() => {
                    secs = Some(u64::deserialize(src)?)
                }
                Key::Index(1) | Key::Name("nanos") if nanos.is_none() => {
                    nanos = Some(u32::deserialize(src)?)
                }
                _ => src.skip()?,
            }
        }
        src.end_struct();
        match (secs, nanos) {
            (Some(secs), Some(nanos)) => Ok(Duration::new(secs, nanos)),
            (None, _) => Err(DeError::new("duration missing `secs`")),
            (_, None) => Err(DeError::new("duration missing `nanos`")),
        }
    }
}
