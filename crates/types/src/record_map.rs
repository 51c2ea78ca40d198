//! The per-message record store of every replica.
//!
//! Figure 3 of the paper keeps per-message state in arrays indexed by
//! message. [`RecordMap`] lays records out the same way: each sender's
//! messages are numbered densely, so a record lives in a slot indexed by its
//! sequence number, and lookup, insertion and removal cost O(1) instead of a
//! B-tree descent. Iteration is in ascending [`MsgId`] order, exactly as a
//! `BTreeMap<MsgId, R>` iterates, so every scan over the records — snapshots,
//! index rebuilds, the prune scan — sees the same sequence.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Index;

use crate::ids::{MsgId, ProcessId};

/// A sequence number more than this many slots past the end of its sender's
/// window goes to the overflow map instead of growing the window.
const MAX_GAP: u64 = 1024;

/// A window whose occupancy falls below `1 / SPARSE` after a removal spills
/// its prefix to the overflow map until occupancy is back at `2 / SPARSE`.
const SPARSE: usize = 8;

/// Slot storage a window keeps however few records it holds.
const MIN_SLOTS: usize = 64;

/// A map from [`MsgId`] to per-message records, laid out as one dense
/// sequence-indexed window per sender.
///
/// * **Layout.** Per sender (a small vector of senders, sorted), a window of
///   slots covers sequence numbers `base..base + len`; a slot is an
///   `Option<Box<R>>`, 8 bytes, so a sequence number this replica never sees
///   (a message addressed to other groups) costs a slot, not a record, and
///   growing the window moves slots, never records. Ids below `base`, or
///   more than a fixed gap past the window's end, live in an ordered
///   per-sender overflow map: memory follows the resident records plus the
///   window spans, never an id's value.
/// * **Cost.** [`get`](Self::get), [`insert`](Self::insert) and
///   [`remove`](Self::remove) are O(1) inside the window (plus a binary
///   search over the senders). Removing the front record advances the window
///   past empty slots; when a removal leaves fewer than one slot in 8
///   occupied — a front record that never leaves pins the window — the sparse
///   prefix spills to the overflow map.
/// * **Order.** [`iter`](Self::iter), [`values`](Self::values) and
///   [`retain`](Self::retain) visit records in ascending `MsgId` order.
///
/// ```
/// use wbam_types::{MsgId, ProcessId, RecordMap};
///
/// let mut records = RecordMap::new();
/// records.insert(MsgId::new(ProcessId(2), 0), "b0");
/// records.insert(MsgId::new(ProcessId(1), 7), "a7");
/// records.insert(MsgId::new(ProcessId(1), u64::MAX), "a-max");
/// assert_eq!(records[&MsgId::new(ProcessId(1), 7)], "a7");
/// let order: Vec<_> = records.values().copied().collect();
/// assert_eq!(order, ["a7", "a-max", "b0"]);
/// ```
#[derive(Debug, Clone)]
pub struct RecordMap<R> {
    /// One lane per sender that ever had a record here, sorted by sender.
    lanes: Vec<Lane<R>>,
    /// Records over all lanes.
    len: usize,
}

/// One sender's records.
#[derive(Debug, Clone)]
struct Lane<R> {
    sender: ProcessId,
    /// The sequence number of `window[0]`.
    base: u64,
    /// Slot `i` holds the record of sequence number `base + i`. Empty, or
    /// both ends hold a record.
    window: VecDeque<Option<Box<R>>>,
    /// Records in `window`.
    occupied: usize,
    /// Records whose sequence number lies outside the window.
    overflow: BTreeMap<u64, R>,
}

impl<R> Lane<R> {
    fn new(sender: ProcessId) -> Self {
        Lane {
            sender,
            base: 0,
            window: VecDeque::new(),
            occupied: 0,
            overflow: BTreeMap::new(),
        }
    }

    /// The window slot of `seq`, if the window covers it.
    fn slot(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.base)?;
        (offset < self.window.len() as u64).then_some(offset as usize)
    }

    fn get(&self, seq: u64) -> Option<&R> {
        match self.slot(seq) {
            Some(i) => self.window[i].as_deref(),
            None => self.overflow.get(&seq),
        }
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut R> {
        match self.slot(seq) {
            Some(i) => self.window[i].as_deref_mut(),
            None => self.overflow.get_mut(&seq),
        }
    }

    fn insert(&mut self, seq: u64, record: R) -> Option<R> {
        if self.window.is_empty() && !self.overflow.contains_key(&seq) {
            self.base = seq;
            self.window.push_back(None);
        } else if seq >= self.base
            && seq - self.base >= self.window.len() as u64
            && seq - self.base - self.window.len() as u64 <= MAX_GAP
        {
            self.extend_to(seq);
        }
        let Some(i) = self.slot(seq) else {
            return self.overflow.insert(seq, record);
        };
        let old = self.window[i].replace(Box::new(record));
        if old.is_none() {
            self.occupied += 1;
        }
        old.map(|old| *old)
    }

    /// Grows the window with empty slots up to and including `seq`, and moves
    /// the overflow records the window now covers into their slots.
    fn extend_to(&mut self, seq: u64) {
        let first_new = self.base + self.window.len() as u64;
        self.window
            .resize_with((seq - self.base + 1) as usize, || None);
        if self
            .overflow
            .last_key_value()
            .is_some_and(|(&k, _)| k >= first_new)
        {
            let covered: Vec<u64> = self
                .overflow
                .range(first_new..=seq)
                .map(|(&k, _)| k)
                .collect();
            for k in covered {
                let record = self.overflow.remove(&k).expect("key just listed");
                self.window[(k - self.base) as usize] = Some(Box::new(record));
                self.occupied += 1;
            }
        }
    }

    fn remove(&mut self, seq: u64) -> Option<R> {
        let Some(i) = self.slot(seq) else {
            return self.overflow.remove(&seq);
        };
        let record = *self.window[i].take()?;
        self.occupied -= 1;
        self.trim();
        if self.occupied * SPARSE < self.window.len() {
            self.spill();
        }
        Some(record)
    }

    /// Restores the window invariant after slots were emptied: drops empty
    /// slots at both ends, and releases slot storage once the window fills
    /// less than a quarter of it.
    fn trim(&mut self) {
        if self.occupied == 0 {
            self.window.clear();
        }
        while let Some(None) = self.window.back() {
            self.window.pop_back();
        }
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
        if self.window.capacity() > 4 * self.window.len() + MIN_SLOTS {
            self.window.shrink_to(2 * self.window.len() + MIN_SLOTS);
        }
    }

    /// Moves the front records to the overflow map, dropping the empty slots
    /// after each, until at least `2 / SPARSE` of the window is occupied.
    /// Every slot is spilled at most once, so the cost is amortised over the
    /// insertions that created the slots.
    fn spill(&mut self) {
        while self.occupied * SPARSE < 2 * self.window.len() {
            let record = self
                .window
                .pop_front()
                .flatten()
                .expect("front slot holds a record");
            self.overflow.insert(self.base, *record);
            self.occupied -= 1;
            if self.window.is_empty() {
                return;
            }
            self.base += 1;
            self.trim();
        }
    }

    /// The records in ascending sequence order: the overflow below the
    /// window, the window, then the overflow above it.
    fn iter(&self) -> impl Iterator<Item = (u64, &R)> {
        let base = self.base;
        let window = self.window.iter().enumerate();
        let window = window.filter_map(move |(i, s)| s.as_deref().map(|r| (base + i as u64, r)));
        let below = self.overflow.range(..base).map(|(&seq, r)| (seq, r));
        let above = self.overflow.range(base..).map(|(&seq, r)| (seq, r));
        below.chain(window).chain(above)
    }

    /// Keeps the records `keep` accepts, visiting them in ascending order.
    fn retain(&mut self, mut keep: impl FnMut(u64, &mut R) -> bool) -> usize {
        let base = self.base;
        let mut removed = 0;
        let mut visit = |seq: u64, record: &mut R| {
            let kept = keep(seq, record);
            removed += usize::from(!kept);
            kept
        };
        self.overflow.retain(|&seq, r| seq >= base || visit(seq, r));
        for (i, slot) in self.window.iter_mut().enumerate() {
            if let Some(record) = slot {
                if !visit(base + i as u64, record) {
                    *slot = None;
                    self.occupied -= 1;
                }
            }
        }
        self.overflow.retain(|&seq, r| seq < base || visit(seq, r));
        self.trim();
        removed
    }
}

impl<R> RecordMap<R> {
    /// An empty map.
    pub fn new() -> Self {
        RecordMap {
            lanes: Vec::new(),
            len: 0,
        }
    }

    fn lane(&self, sender: ProcessId) -> Option<&Lane<R>> {
        let i = self
            .lanes
            .binary_search_by_key(&sender, |l| l.sender)
            .ok()?;
        Some(&self.lanes[i])
    }

    fn lane_mut(&mut self, sender: ProcessId) -> Option<&mut Lane<R>> {
        let i = self
            .lanes
            .binary_search_by_key(&sender, |l| l.sender)
            .ok()?;
        Some(&mut self.lanes[i])
    }

    /// The record of `id`.
    pub fn get(&self, id: &MsgId) -> Option<&R> {
        self.lane(id.sender)?.get(id.seq)
    }

    /// The record of `id`, mutably.
    pub fn get_mut(&mut self, id: &MsgId) -> Option<&mut R> {
        self.lane_mut(id.sender)?.get_mut(id.seq)
    }

    /// Whether `id` has a record.
    pub fn contains_key(&self, id: &MsgId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `record` as `id`'s, returning the record it replaces.
    pub fn insert(&mut self, id: MsgId, record: R) -> Option<R> {
        let i = match self.lanes.binary_search_by_key(&id.sender, |l| l.sender) {
            Ok(i) => i,
            Err(i) => {
                self.lanes.insert(i, Lane::new(id.sender));
                i
            }
        };
        let old = self.lanes[i].insert(id.seq, record);
        self.len += usize::from(old.is_none());
        old
    }

    /// `id`'s record, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, id: MsgId, make: impl FnOnce() -> R) -> &mut R {
        if !self.contains_key(&id) {
            self.insert(id, make());
        }
        self.get_mut(&id).expect("record present or just inserted")
    }

    /// Removes and returns `id`'s record.
    pub fn remove(&mut self, id: &MsgId) -> Option<R> {
        let record = self.lane_mut(id.sender)?.remove(id.seq)?;
        self.len -= 1;
        Some(record)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records with their ids, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (MsgId, &R)> {
        self.lanes.iter().flat_map(|lane| {
            let sender = lane.sender;
            lane.iter()
                .map(move |(seq, r)| (MsgId::new(sender, seq), r))
        })
    }

    /// The records, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &R> {
        self.iter().map(|(_, r)| r)
    }

    /// Keeps only the records `keep` accepts, visiting them in ascending id
    /// order.
    pub fn retain(&mut self, mut keep: impl FnMut(&MsgId, &mut R) -> bool) {
        for lane in &mut self.lanes {
            let sender = lane.sender;
            self.len -= lane.retain(|seq, r| keep(&MsgId::new(sender, seq), r));
        }
    }

    /// Window slots allocated over all senders: the store's footprint beyond
    /// the records themselves (8 bytes a slot).
    pub fn slot_capacity(&self) -> usize {
        self.lanes.iter().map(|l| l.window.capacity()).sum()
    }
}

impl<R> Default for RecordMap<R> {
    fn default() -> Self {
        RecordMap::new()
    }
}

impl<R> Index<&MsgId> for RecordMap<R> {
    type Output = R;

    fn index(&self, id: &MsgId) -> &R {
        self.get(id).expect("no record for this id")
    }
}

impl<R> FromIterator<(MsgId, R)> for RecordMap<R> {
    fn from_iter<I: IntoIterator<Item = (MsgId, R)>>(iter: I) -> Self {
        let mut map = RecordMap::new();
        for (id, record) in iter {
            map.insert(id, record);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// What one step does: `(operation, sender, how the sequence number is
    /// chosen, a number the choice uses)`.
    type Op = (u8, u32, u8, u64);

    fn op() -> impl Strategy<Value = Op> {
        (0u8..6, 0u32..4, 0u8..6, 0u64..=u64::MAX)
    }

    /// The sequence number an operation touches, drawn from dense runs,
    /// gaps around the window's reach, descending runs, sparse jumps up to
    /// `u64::MAX`, and ids already present.
    fn next_seq(cursor: &mut u64, model: &BTreeMap<MsgId, u64>, how: u8, n: u64) -> u64 {
        *cursor = match how {
            0 | 1 => cursor.wrapping_add(1),
            2 => cursor.wrapping_add(2 + n % (2 * MAX_GAP)),
            3 => cursor.wrapping_sub(1 + n % 3),
            4 => match n % 3 {
                0 => n,
                1 => u64::MAX - n % 4,
                _ => n % 8,
            },
            _ => match model.keys().nth((n as usize) % model.len().max(1)) {
                Some(id) => id.seq,
                None => *cursor,
            },
        };
        *cursor
    }

    fn contents(map: &RecordMap<u64>) -> Vec<(MsgId, u64)> {
        map.iter().map(|(id, r)| (id, *r)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// The store answers every lookup, count and ordered scan exactly
        /// as a `BTreeMap` does under any interleaving of entry-or-insert,
        /// insert, get-mut, remove and retain over a few senders.
        #[test]
        fn store_matches_a_btreemap_under_any_interleaving(
            ops in prop::collection::vec(op(), 1..300),
        ) {
            let mut map: RecordMap<u64> = RecordMap::new();
            let mut model: BTreeMap<MsgId, u64> = BTreeMap::new();
            let mut cursor = 0u64;
            for (step, (kind, sender, how, n)) in ops.into_iter().enumerate() {
                let id = MsgId::new(ProcessId(sender), next_seq(&mut cursor, &model, how, n));
                let value = step as u64;
                match kind {
                    0 => {
                        *map.get_or_insert_with(id, || value) += 1;
                        *model.entry(id).or_insert(value) += 1;
                    }
                    1 => prop_assert_eq!(map.insert(id, value), model.insert(id, value)),
                    2 => {
                        if let Some(r) = map.get_mut(&id) {
                            *r += 7;
                        }
                        if let Some(r) = model.get_mut(&id) {
                            *r += 7;
                        }
                    }
                    3 | 4 => prop_assert_eq!(map.remove(&id), model.remove(&id)),
                    _ => {
                        // Drop the ids whose value has bit `n % 4` set, and
                        // check the visiting order.
                        let bit = n % 4;
                        let mut seen = Vec::new();
                        map.retain(|id, r| {
                            seen.push(*id);
                            *r += 1;
                            *r & (1 << bit) == 0
                        });
                        let mut expected = Vec::new();
                        model.retain(|id, r| {
                            expected.push(*id);
                            *r += 1;
                            *r & (1 << bit) == 0
                        });
                        prop_assert_eq!(seen, expected);
                    }
                }
                prop_assert_eq!(map.get(&id), model.get(&id));
                prop_assert_eq!(map.contains_key(&id), model.contains_key(&id));
                prop_assert_eq!(map.len(), model.len());
                let expected: Vec<(MsgId, u64)> = model.iter().map(|(id, r)| (*id, *r)).collect();
                prop_assert_eq!(contents(&map), expected);
            }
            let rebuilt: RecordMap<u64> = model.iter().map(|(id, r)| (*id, *r)).collect();
            prop_assert_eq!(contents(&rebuilt), contents(&map));
        }
    }

    #[test]
    fn extreme_ids_from_one_sender_take_constant_slots() {
        let mut map = RecordMap::new();
        let sender = ProcessId(3);
        map.insert(MsgId::new(sender, 0), 'a');
        map.insert(MsgId::new(sender, u64::MAX), 'z');
        assert!(map.slot_capacity() <= 8, "{} slots", map.slot_capacity());
        assert_eq!(map.values().copied().collect::<String>(), "az");
        assert_eq!(map.remove(&MsgId::new(sender, 0)), Some('a'));
        assert_eq!(map.remove(&MsgId::new(sender, u64::MAX)), Some('z'));
        assert!(map.is_empty());
    }

    #[test]
    fn a_record_that_never_leaves_does_not_pin_the_window() {
        const WINDOW: u64 = 64;
        const PASSING: u64 = 1_000_000;
        /// The window reaches `SPARSE` times its live records before the
        /// pinned record spills; the deque rounds its capacity up to a power
        /// of two.
        const MAX_SLOTS: usize = 4 * SPARSE * (WINDOW as usize + 1);
        let sender = ProcessId(1);
        let mut map = RecordMap::new();
        map.insert(MsgId::new(sender, 0), 0u64);
        let mut max_slots = 0;
        for seq in 1..=PASSING {
            map.insert(MsgId::new(sender, seq), seq);
            if seq > WINDOW {
                assert_eq!(
                    map.remove(&MsgId::new(sender, seq - WINDOW)),
                    Some(seq - WINDOW)
                );
            }
            max_slots = max_slots.max(map.slot_capacity());
        }
        assert!(
            max_slots <= MAX_SLOTS,
            "{max_slots} slots for {} live records (bound {MAX_SLOTS})",
            map.len()
        );
        assert_eq!(map.len(), WINDOW as usize + 1);
        assert_eq!(map[&MsgId::new(sender, 0)], 0);
        let ids: Vec<u64> = map.iter().map(|(id, _)| id.seq).collect();
        let expected: Vec<u64> = std::iter::once(0)
            .chain(PASSING - WINDOW + 1..=PASSING)
            .collect();
        assert_eq!(ids, expected);
    }
}
