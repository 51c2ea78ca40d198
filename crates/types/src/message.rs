//! Application messages and destination sets.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bytes::Bytes;
use serde::de::{DeError, Source};
use serde::ser::Sink;
use serde::{Deserialize, Serialize};

use crate::error::WbamError;
use crate::ids::{GroupId, MsgId};

/// Application payload carried by a multicast message.
///
/// Payloads are opaque byte strings; the evaluation in the paper uses 20-byte
/// messages (§VI). [`Payload`] is cheaply cloneable (`Bytes` is reference
/// counted).
///
/// ```
/// use wbam_types::Payload;
/// let p = Payload::from_static(b"hello");
/// assert_eq!(p.len(), 5);
/// assert!(!p.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Payload(Bytes);

impl Payload {
    /// Creates an empty payload.
    pub fn empty() -> Self {
        Payload(Bytes::new())
    }

    /// Creates a payload from a static byte string. The bytes are copied once
    /// into a shared buffer (the in-tree `bytes` shim has no borrowed form);
    /// clones of the payload share that copy.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Payload(Bytes::from_static(bytes))
    }

    /// Creates a payload consisting of `len` zero bytes, for benchmarking.
    pub fn zeros(len: usize) -> Self {
        Payload(Bytes::from(vec![0u8; len]))
    }

    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A view of the payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Bytes::from(v))
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        Payload(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload(b)
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// The destination group set of an application message (`dest(m)` in the paper).
///
/// A destination set is a non-empty set of group identifiers, stored sorted and
/// de-duplicated. Two messages *conflict* when their destination sets intersect.
///
/// ```
/// use wbam_types::{Destination, GroupId};
/// let d = Destination::new(vec![GroupId(2), GroupId(0), GroupId(2)]).unwrap();
/// assert_eq!(d.groups(), &[GroupId(0), GroupId(2)]);
/// assert!(d.contains(GroupId(0)));
/// let e = Destination::new(vec![GroupId(1), GroupId(2)]).unwrap();
/// assert!(d.conflicts_with(&e));
/// ```
///
/// A set of up to five groups is held in place, as many as fit in the space
/// of a shared slice, so building, decoding or cloning one allocates
/// nothing; a longer set sits behind an [`Arc`], so cloning it is a
/// reference-count bump. Either way cloning a destination (and with it an
/// [`AppMessage`]) never allocates: an `ACCEPT` fan-out clones the message
/// once per recipient. The serde form is the sorted group list, and decoding
/// refuses a list that [`Destination::new`] would not have built (empty,
/// unsorted or with a repeated group), since a frame from the network can
/// carry anything.
#[derive(Clone)]
pub struct Destination(Groups);

/// The representation behind [`Destination`].
#[derive(Clone)]
enum Groups {
    /// The first `len` of `groups` are the set.
    Inline {
        len: u8,
        groups: [GroupId; Destination::INLINE],
    },
    /// A set longer than `Destination::INLINE`.
    Shared(Arc<[GroupId]>),
}

impl Serialize for Destination {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        self.groups().serialize(sink);
    }
}

impl Deserialize for Destination {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        let len = src.begin_seq()?;
        let mut previous = None;
        let mut next = |src: &mut S| {
            let group = GroupId::deserialize(src)?;
            if let Some(previous) = previous.filter(|&p| p >= group) {
                return Err(DeError::new(format!(
                    "destination groups must be sorted and distinct: {group} after {previous}"
                )));
            }
            previous = Some(group);
            Ok(group)
        };
        let destination = match len {
            0 => return Err(DeError::new(WbamError::EmptyDestination.to_string())),
            len if len <= Destination::INLINE => {
                let mut groups = [GroupId(0); Destination::INLINE];
                for slot in &mut groups[..len] {
                    *slot = next(src)?;
                }
                Destination::from_sorted(&groups[..len])
            }
            len => {
                let groups = (0..len).map(|_| next(src)).collect::<Result<Vec<_>, _>>()?;
                Destination::from_sorted(&groups)
            }
        };
        src.end_seq();
        Ok(destination)
    }
}

impl Destination {
    /// Most groups a destination holds in place.
    const INLINE: usize = 5;

    /// Creates a destination set from a list of groups.
    ///
    /// Duplicates are removed and the set is stored sorted.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::EmptyDestination`] if the resulting set is empty.
    pub fn new<I: IntoIterator<Item = GroupId>>(groups: I) -> Result<Self, WbamError> {
        let mut v: Vec<GroupId> = groups.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        if v.is_empty() {
            return Err(WbamError::EmptyDestination);
        }
        Ok(Destination::from_sorted(&v))
    }

    /// Creates a destination set addressed to a single group.
    pub fn single(group: GroupId) -> Self {
        Destination::from_sorted(&[group])
    }

    /// The set of `groups`, which are sorted, distinct and not empty.
    fn from_sorted(groups: &[GroupId]) -> Self {
        if groups.len() > Destination::INLINE {
            return Destination(Groups::Shared(groups.into()));
        }
        let mut inline = [GroupId(0); Destination::INLINE];
        inline[..groups.len()].copy_from_slice(groups);
        Destination(Groups::Inline {
            len: groups.len() as u8,
            groups: inline,
        })
    }

    /// The groups in the destination set, sorted ascending.
    pub fn groups(&self) -> &[GroupId] {
        match &self.0 {
            Groups::Inline { len, groups } => &groups[..usize::from(*len)],
            Groups::Shared(groups) => groups,
        }
    }

    /// Number of destination groups.
    pub fn len(&self) -> usize {
        self.groups().len()
    }

    /// Whether the destination set is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.groups().is_empty()
    }

    /// Whether the set contains a given group.
    pub fn contains(&self, g: GroupId) -> bool {
        self.groups().binary_search(&g).is_ok()
    }

    /// Whether two destination sets intersect, i.e. whether messages addressed
    /// to them are *conflicting* in the sense of §II.
    pub fn conflicts_with(&self, other: &Destination) -> bool {
        self.iter().any(|g| other.contains(g))
    }

    /// Iterates over the destination groups.
    pub fn iter(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups().iter().copied()
    }
}

// Equality, order, hashing and debug output are the group list's, whichever
// form holds it: two equal sets compare, sort and hash alike, and a trace
// prints a set the same way in both forms.

impl PartialEq for Destination {
    fn eq(&self, other: &Self) -> bool {
        self.groups() == other.groups()
    }
}

impl Eq for Destination {}

impl PartialOrd for Destination {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Destination {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.groups().cmp(other.groups())
    }
}

impl Hash for Destination {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.groups().hash(state);
    }
}

impl fmt::Debug for Destination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Destination").field(&self.groups()).finish()
    }
}

impl fmt::Display for Destination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, "}}")
    }
}

/// An application message submitted for multicast: identifier, destination
/// groups and opaque payload.
///
/// ```
/// use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload, ProcessId};
/// let m = AppMessage::new(
///     MsgId::new(ProcessId(30), 0),
///     Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
///     Payload::from("set x=1"),
/// );
/// assert_eq!(m.dest.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppMessage {
    /// Globally unique identifier of the message.
    pub id: MsgId,
    /// Destination groups `dest(m)`.
    pub dest: Destination,
    /// Opaque application payload.
    pub payload: Payload,
}

impl AppMessage {
    /// Creates an application message.
    pub fn new(id: MsgId, dest: Destination, payload: Payload) -> Self {
        AppMessage { id, dest, payload }
    }

    /// Whether the message is addressed to the given group.
    pub fn is_addressed_to(&self, g: GroupId) -> bool {
        self.dest.contains(g)
    }

    /// Whether this message conflicts with another (destination sets intersect).
    pub fn conflicts_with(&self, other: &AppMessage) -> bool {
        self.dest.conflicts_with(&other.dest)
    }
}

impl fmt::Display for AppMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.id, self.dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    #[test]
    fn payload_constructors() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::zeros(20).len(), 20);
        assert_eq!(Payload::from("abc").as_bytes(), b"abc");
        assert_eq!(Payload::from(vec![1, 2, 3]).as_ref(), &[1, 2, 3]);
        assert_eq!(Payload::from_static(b"xy").len(), 2);
    }

    #[test]
    fn destination_dedups_and_sorts() {
        let d = Destination::new(vec![GroupId(3), GroupId(1), GroupId(3)]).unwrap();
        assert_eq!(d.groups(), &[GroupId(1), GroupId(3)]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert!(d.contains(GroupId(1)));
        assert!(!d.contains(GroupId(2)));
        assert_eq!(d.to_string(), "{g1,g3}");
    }

    #[test]
    fn empty_destination_is_rejected() {
        assert!(matches!(
            Destination::new(Vec::new()),
            Err(WbamError::EmptyDestination)
        ));
    }

    #[test]
    fn single_destination() {
        let d = Destination::single(GroupId(4));
        assert_eq!(d.groups(), &[GroupId(4)]);
    }

    /// A short set is held in place in no more room than a shared slice
    /// takes, and a long one is shared; both compare, order, hash and print
    /// by their groups alone.
    #[test]
    fn short_sets_are_inline_and_both_forms_behave_as_the_group_list() {
        assert_eq!(std::mem::size_of::<Destination>(), 24);
        let inline = Destination::new((0..5).map(GroupId)).unwrap();
        let shared = Destination::new((0..6).map(GroupId)).unwrap();
        assert!(matches!(inline.0, Groups::Inline { len: 5, .. }));
        assert!(matches!(shared.0, Groups::Shared(_)));
        assert!(inline < shared, "ordered as slices: a prefix comes first");
        let arc: Arc<[GroupId]> = shared.groups().into();
        assert_eq!(format!("{shared:?}"), format!("Destination({arc:?})"));
        fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            value.hash(&mut hasher);
            hasher.finish()
        }
        assert_eq!(hash_of(&inline), hash_of(inline.groups()));
        assert_eq!(hash_of(&shared), hash_of(shared.groups()));
        assert_eq!(shared.clone(), shared);
    }

    #[test]
    fn conflict_detection() {
        let a = Destination::new(vec![GroupId(0), GroupId(1)]).unwrap();
        let b = Destination::new(vec![GroupId(1), GroupId(2)]).unwrap();
        let c = Destination::new(vec![GroupId(3)]).unwrap();
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn app_message_addressing() {
        let m = AppMessage::new(
            MsgId::new(ProcessId(9), 3),
            Destination::new(vec![GroupId(0), GroupId(2)]).unwrap(),
            Payload::from("v"),
        );
        assert!(m.is_addressed_to(GroupId(2)));
        assert!(!m.is_addressed_to(GroupId(1)));
        let n = AppMessage::new(
            MsgId::new(ProcessId(9), 4),
            Destination::single(GroupId(2)),
            Payload::empty(),
        );
        assert!(m.conflicts_with(&n));
        assert_eq!(m.to_string(), "m(p9,3)→{g0,g2}");
    }

    #[test]
    fn app_message_round_trips_through_serde() {
        let m = AppMessage::new(
            MsgId::new(ProcessId(1), 2),
            Destination::new(vec![GroupId(0)]).unwrap(),
            Payload::from(vec![9, 9]),
        );
        let json = serde_json::to_string(&m).unwrap();
        let back: AppMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
