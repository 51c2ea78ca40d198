//! The self-describing data model as a tree.
//!
//! [`Value`] is what the JSON shim prints and parses: [`to_value`] is one
//! more [`Sink`] that builds the tree from a serialisation, [`from_value`]
//! one more [`Source`] that walks it. The tree keeps names, not positions: a
//! struct is a map from field name to value, a unit variant its name as a
//! string, any other variant a one-entry map from its name to its data
//! (serde's external tagging). The binary codec never builds one.

use crate::de::{DeError, Deserialize, Key, Kind, Source};
use crate::ser::{Serialize, Sink};

/// A self-describing serialised value.
///
/// It maps one-to-one onto the JSON data model, with integers kept in
/// distinct signed/unsigned variants so that the full `u64`/`i64` ranges
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`; also the encoding of `None` and of unit types.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (used for negative values).
    I64(i64),
    /// An unsigned integer (used for all non-negative integers).
    U64(u64),
    /// A floating-point number. Never NaN or infinite.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence of values (JSON array).
    Seq(Vec<Value>),
    /// An ordered list of key/value pairs (JSON object). Insertion order is
    /// preserved so that encodings are deterministic.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The value's kind, as a [`Source`] over it reports it.
    pub fn kind(&self) -> Kind {
        match self {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::I64(_) | Value::U64(_) => Kind::Int,
            Value::F64(_) => Kind::Float,
            Value::Str(_) => Kind::Str,
            Value::Seq(_) => Kind::Seq,
            Value::Map(_) => Kind::Map,
        }
    }
}

/// Serialises `value` into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    let mut sink = TreeSink {
        open: Vec::new(),
        root: None,
    };
    value.serialize(&mut sink);
    sink.root.expect("a serialisation emits exactly one value")
}

/// Deserialises a `T` from a [`Value`] tree.
///
/// # Errors
///
/// Returns an error when the tree's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, DeError> {
    T::deserialize(&mut TreeSource {
        next: Some(value),
        open: Vec::new(),
    })
}

/// A container under construction in a [`TreeSink`].
enum Open {
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>, Option<&'static str>),
}

struct TreeSink {
    open: Vec<Open>,
    root: Option<Value>,
}

impl TreeSink {
    fn put(&mut self, value: Value) {
        match self.open.last_mut() {
            None => self.root = Some(value),
            Some(Open::Seq(items)) => items.push(value),
            Some(Open::Map(entries, key)) => {
                let key = key.take().expect("a map value follows its key");
                entries.push((key.to_string(), value));
            }
        }
    }
}

impl Sink for TreeSink {
    fn null(&mut self) {
        self.put(Value::Null);
    }

    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }

    fn u64(&mut self, v: u64) {
        self.put(Value::U64(v));
    }

    fn i64(&mut self, v: i64) {
        self.put(Value::I64(v));
    }

    fn f64(&mut self, v: f64) {
        self.put(Value::F64(v));
    }

    fn str(&mut self, v: &str) {
        self.put(Value::Str(v.to_string()));
    }

    fn begin_seq(&mut self, len: usize) {
        self.open.push(Open::Seq(Vec::with_capacity(len)));
    }

    fn end_seq(&mut self) {
        match self.open.pop() {
            Some(Open::Seq(items)) => self.put(Value::Seq(items)),
            _ => panic!("end_seq without a matching begin_seq"),
        }
    }

    fn begin_struct(&mut self, len: usize) {
        self.open.push(Open::Map(Vec::with_capacity(len), None));
    }

    fn field(&mut self, name: &'static str) {
        match self.open.last_mut() {
            Some(Open::Map(_, slot)) => *slot = Some(name),
            _ => panic!("field outside a struct"),
        }
    }

    fn end_struct(&mut self) {
        match self.open.pop() {
            Some(Open::Map(entries, _)) => self.put(Value::Map(entries)),
            _ => panic!("end_struct without a matching begin_struct"),
        }
    }

    fn unit_variant(&mut self, _index: u32, name: &'static str) {
        self.put(Value::Str(name.to_string()));
    }

    fn begin_variant(&mut self, _index: u32, name: &'static str) {
        self.begin_struct(1);
        self.field(name);
    }

    fn end_variant(&mut self) {
        self.end_struct();
    }
}

/// A container being read by a [`TreeSource`].
enum Cursor<'v> {
    Seq(std::slice::Iter<'v, Value>),
    Map(std::slice::Iter<'v, (String, Value)>),
}

struct TreeSource<'v> {
    /// The value to read next when it is not the innermost sequence's next
    /// element: the root, a map entry's value after its key, or the `null`
    /// of an absent field.
    next: Option<&'v Value>,
    open: Vec<Cursor<'v>>,
}

const END: &str = "value tree read past its end";

impl<'v> TreeSource<'v> {
    fn peek_value(&self) -> Result<&'v Value, DeError> {
        match (self.next, self.open.last()) {
            (Some(value), _) => Some(value),
            (None, Some(Cursor::Seq(items))) => items.as_slice().first(),
            (None, _) => None,
        }
        .ok_or_else(|| DeError::new(END))
    }

    fn take(&mut self) -> Result<&'v Value, DeError> {
        match (self.next.take(), self.open.last_mut()) {
            (Some(value), _) => Some(value),
            (None, Some(Cursor::Seq(items))) => items.next(),
            (None, _) => None,
        }
        .ok_or_else(|| DeError::new(END))
    }
}

impl<'v> Source<'v> for TreeSource<'v> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        self.peek_value().map(Value::kind)
    }

    fn null(&mut self) -> Result<(), DeError> {
        match self.take()? {
            Value::Null => Ok(()),
            other => Err(DeError::expected("null", other.kind())),
        }
    }

    fn bool(&mut self) -> Result<bool, DeError> {
        match self.take()? {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other.kind())),
        }
    }

    fn int(&mut self) -> Result<i128, DeError> {
        match self.take()? {
            Value::I64(n) => Ok(i128::from(*n)),
            Value::U64(n) => Ok(i128::from(*n)),
            other => Err(DeError::expected("integer", other.kind())),
        }
    }

    fn f64(&mut self) -> Result<f64, DeError> {
        match self.take()? {
            Value::F64(x) => Ok(*x),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            other => Err(DeError::expected("number", other.kind())),
        }
    }

    fn str(&mut self) -> Result<&'v str, DeError> {
        match self.take()? {
            Value::Str(s) => Ok(s),
            other => Err(DeError::expected("string", other.kind())),
        }
    }

    fn bytes(&mut self) -> Result<Option<&'v [u8]>, DeError> {
        Ok(None)
    }

    fn begin_seq(&mut self) -> Result<usize, DeError> {
        match self.take()? {
            Value::Seq(items) => {
                self.open.push(Cursor::Seq(items.iter()));
                Ok(items.len())
            }
            other => Err(DeError::expected("sequence", other.kind())),
        }
    }

    fn end_seq(&mut self) {
        self.open.pop();
    }

    fn begin_struct(&mut self) -> Result<usize, DeError> {
        match self.take()? {
            Value::Map(entries) => {
                self.open.push(Cursor::Map(entries.iter()));
                Ok(entries.len())
            }
            other => Err(DeError::expected("map", other.kind())),
        }
    }

    fn field(&mut self, _position: usize) -> Result<Key<'v>, DeError> {
        match self.open.last_mut() {
            Some(Cursor::Map(entries)) => entries.next(),
            _ => None,
        }
        .map(|(key, value)| {
            self.next = Some(value);
            Key::Name(key)
        })
        .ok_or_else(|| DeError::new(END))
    }

    fn end_struct(&mut self) {
        self.open.pop();
    }

    fn begin_enum(&mut self, name: &'static str) -> Result<(Key<'v>, bool), DeError> {
        match self.peek_value()? {
            Value::Str(_) => self.str().map(|variant| (Key::Name(variant), false)),
            Value::Map(entries) if entries.len() == 1 => {
                self.begin_struct()?;
                self.field(0).map(|variant| (variant, true))
            }
            Value::Map(_) => Err(DeError::new(format!("expected enum {name}, found map"))),
            other => Err(DeError::expected(&format!("enum {name}"), other.kind())),
        }
    }

    fn end_variant(&mut self) {
        self.end_struct();
    }

    fn skip(&mut self) -> Result<(), DeError> {
        self.take().map(drop)
    }

    fn absent<T: Deserialize>(&mut self) -> Result<T, DeError> {
        static NULL: Value = Value::Null;
        self.next = Some(&NULL);
        T::deserialize(self)
    }
}
