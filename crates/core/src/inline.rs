//! A short vector stored in place: the per-message bookkeeping of the
//! ordering path (ballot vectors, accepts, ack tallies) holds one entry per
//! destination group, and a message has one or two of those, so these
//! vectors cost no allocation until they outgrow `N` entries.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` items in place, spilling to a `Vec` past that. Reads and
/// in-place writes go through the slice it dereferences to.
#[derive(Clone)]
pub(crate) enum InlineVec<T, const N: usize> {
    /// The first `len` items are live; the rest hold `T::default()`.
    Inline { len: usize, items: [T; N] },
    /// More than `N` items at some point.
    Heap(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub(crate) fn new() -> Self {
        InlineVec::Inline {
            len: 0,
            items: std::array::from_fn(|_| T::default()),
        }
    }

    /// Inserts `item` at `at`, shifting the items after it; `at` must be at
    /// most the length.
    pub(crate) fn insert(&mut self, at: usize, item: T) {
        match self {
            InlineVec::Inline { len, items } if *len < N => {
                items[*len] = item;
                items[at..=*len].rotate_right(1);
                *len += 1;
            }
            InlineVec::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend(items.iter_mut().map(std::mem::take));
                spilled.insert(at, item);
                *self = InlineVec::Heap(spilled);
            }
            InlineVec::Heap(items) => items.insert(at, item),
        }
    }

    /// Appends `item`.
    pub(crate) fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Whether the items ever left their in-place storage.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self, InlineVec::Heap(_))
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, items } => &items[..*len],
            InlineVec::Heap(items) => items,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, items } => &mut items[..*len],
            InlineVec::Heap(items) => items,
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_in_place_then_spill_in_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(3);
        v.insert(0, 1);
        assert_eq!(*v, [1, 3]);
        assert!(!v.spilled());
        v.insert(1, 2);
        v.push(4);
        assert_eq!(*v, [1, 2, 3, 4]);
        assert!(v.spilled());
        v[0] = 0;
        let mut w = InlineVec::new();
        for x in [0, 2, 3, 4] {
            w.push(x);
        }
        assert_eq!(v, w);
    }
}
