//! A partitioned, replicated key-value store driven by atomic multicast.
//!
//! This crate is the motivating application of the paper (§I): a data store
//! partitioned across process groups, where every partition is replicated for
//! fault tolerance and multi-partition operations must be applied in a single
//! total order. Atomic multicast gives exactly that: every replica of every
//! partition applies the operations addressed to its partition in the
//! projection of one system-wide total order, so replicas of a partition stay
//! identical and cross-partition operations (such as transfers between
//! accounts living on different partitions) are never interleaved
//! inconsistently.
//!
//! The store is deliberately simple — string keys, integer values, `Put`,
//! `Get`, `Add` and multi-key `Transfer` operations — because its purpose is
//! to demonstrate and test the multicast layer, not to be a database. Keys are
//! assigned to partitions by hashing.
//!
//! # Example
//!
//! ```
//! use wbam_kvstore::{KvCommand, KvStore, Partitioner};
//! use wbam_types::GroupId;
//!
//! let partitioner = Partitioner::new(3);
//! // The same key always maps to the same partition.
//! assert_eq!(partitioner.partition_of("alice"), partitioner.partition_of("alice"));
//!
//! let mut store = KvStore::new(GroupId(0));
//! store.apply(&KvCommand::put("x", 7));
//! store.apply(&KvCommand::add("x", 3));
//! assert_eq!(store.get("x"), Some(10));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod history;

pub use history::{KvApply, KvHistory, KvOp, LinearizabilityViolation, OracleReport};

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};
use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload, WbamError};

/// Maps keys to partitions (groups) by hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    partitions: u32,
}

impl Partitioner {
    /// Creates a partitioner over `partitions` partitions (one per group).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(partitions: u32) -> Self {
        assert!(partitions > 0, "at least one partition is required");
        Partitioner { partitions }
    }

    /// Number of partitions this partitioner hashes over.
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// The partition (group) responsible for `key`.
    pub fn partition_of(&self, key: &str) -> GroupId {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        GroupId((hasher.finish() % self.partitions as u64) as u32)
    }

    /// The destination group set of a command touching `keys`.
    ///
    /// # Errors
    ///
    /// Returns an error if `keys` is empty.
    pub fn destination_of<'a, I>(&self, keys: I) -> Result<Destination, WbamError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        Destination::new(keys.into_iter().map(|k| self.partition_of(k)))
    }
}

/// A command applied to the store through atomic multicast.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvCommand {
    /// Set `key` to `value`.
    Put {
        /// The key.
        key: String,
        /// The value.
        value: i64,
    },
    /// Add `delta` to `key` (missing keys start at zero).
    Add {
        /// The key.
        key: String,
        /// The amount to add (may be negative).
        delta: i64,
    },
    /// Atomically move `amount` from `from` to `to` — the canonical
    /// multi-partition operation when the two keys hash to different groups.
    Transfer {
        /// Source key.
        from: String,
        /// Destination key.
        to: String,
        /// Amount to move.
        amount: i64,
    },
    /// Read `key` at the command's position in the total order. The observed
    /// value is what the linearizability oracle checks against a replay of
    /// the global-timestamp order (see [`history`]).
    Get {
        /// The key.
        key: String,
    },
}

impl KvCommand {
    /// Convenience constructor for [`KvCommand::Put`].
    pub fn put(key: &str, value: i64) -> Self {
        KvCommand::Put {
            key: key.to_string(),
            value,
        }
    }

    /// Convenience constructor for [`KvCommand::Add`].
    pub fn add(key: &str, delta: i64) -> Self {
        KvCommand::Add {
            key: key.to_string(),
            delta,
        }
    }

    /// Convenience constructor for [`KvCommand::Transfer`].
    pub fn transfer(from: &str, to: &str, amount: i64) -> Self {
        KvCommand::Transfer {
            from: from.to_string(),
            to: to.to_string(),
            amount,
        }
    }

    /// Convenience constructor for [`KvCommand::Get`].
    pub fn get(key: &str) -> Self {
        KvCommand::Get {
            key: key.to_string(),
        }
    }

    /// The keys this command touches.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            KvCommand::Put { key, .. } | KvCommand::Add { key, .. } | KvCommand::Get { key } => {
                vec![key]
            }
            KvCommand::Transfer { from, to, .. } => vec![from, to],
        }
    }

    /// Encodes the command as an [`AppMessage`] addressed to the partitions of
    /// its keys.
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (it does not for this type).
    pub fn to_message(
        &self,
        id: MsgId,
        partitioner: &Partitioner,
    ) -> Result<AppMessage, WbamError> {
        let dest = partitioner.destination_of(self.keys())?;
        let body = serde_json::to_vec(self).map_err(|e| WbamError::Codec(e.to_string()))?;
        Ok(AppMessage::new(id, dest, Payload::from(body)))
    }

    /// Decodes a command from a delivered application message.
    ///
    /// # Errors
    ///
    /// Returns an error if the payload is not a valid encoded command.
    pub fn from_message(msg: &AppMessage) -> Result<Self, WbamError> {
        serde_json::from_slice(msg.payload.as_bytes()).map_err(|e| WbamError::Codec(e.to_string()))
    }
}

/// A serializable snapshot of a [`KvStore`], produced by
/// [`KvStore::to_snapshot`] and consumed by [`KvStore::restore`] /
/// [`KvStore::from_snapshot`]. Checkpoints embed it (serialized) as the
/// opaque application state shipped during state transfer, so a recovering
/// replica installs the store at the watermark instead of replaying every
/// command since genesis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvSnapshot {
    /// The partition the snapshotted store belongs to.
    pub group: GroupId,
    /// The materialised key/value pairs.
    pub data: BTreeMap<String, i64>,
    /// Number of commands applied when the snapshot was taken.
    pub applied: u64,
    /// Number of partitions of the partitioner, if the store was
    /// partition-aware (zero means no partitioner).
    pub partitions: u32,
}

impl KvSnapshot {
    /// Serialises the snapshot to bytes (for embedding in a
    /// [`wbam_types::Checkpoint`]'s `app_state`).
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (it does not for this type).
    pub fn to_bytes(&self) -> Result<Vec<u8>, WbamError> {
        serde_json::to_vec(self).map_err(|e| WbamError::Codec(e.to_string()))
    }

    /// Deserialises a snapshot from bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if the bytes are not a valid encoded snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WbamError> {
        serde_json::from_slice(bytes).map_err(|e| WbamError::Codec(e.to_string()))
    }
}

/// One partition replica's materialised state.
///
/// Every replica of a partition applies, in delivery order, the commands
/// delivered to its group; only the parts of a command that concern this
/// partition are applied (each group receives the projection of the total
/// order, and applies the projection of each command).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    group: GroupId,
    data: BTreeMap<String, i64>,
    applied: u64,
    partitioner: Option<Partitioner>,
}

impl KvStore {
    /// Creates an empty store for the partition owned by `group`.
    pub fn new(group: GroupId) -> Self {
        KvStore {
            group,
            data: BTreeMap::new(),
            applied: 0,
            partitioner: None,
        }
    }

    /// Creates a store that knows the system's partitioning and therefore only
    /// applies the parts of commands whose keys belong to its own partition.
    pub fn with_partitioner(group: GroupId, partitioner: Partitioner) -> Self {
        KvStore {
            group,
            data: BTreeMap::new(),
            applied: 0,
            partitioner: Some(partitioner),
        }
    }

    /// The partition this store belongs to.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Number of commands applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<i64> {
        self.data.get(key).copied()
    }

    /// All key/value pairs, for assertions in tests.
    pub fn snapshot(&self) -> &BTreeMap<String, i64> {
        &self.data
    }

    /// Captures the store's full state as a serializable [`KvSnapshot`].
    pub fn to_snapshot(&self) -> KvSnapshot {
        KvSnapshot {
            group: self.group,
            data: self.data.clone(),
            applied: self.applied,
            partitions: self.partitioner.map(|p| p.partitions()).unwrap_or(0),
        }
    }

    /// Rebuilds a store from a snapshot. The restored store is observably
    /// equivalent to the snapshotted one: same partition, same data, same
    /// applied count, same partition-awareness.
    pub fn from_snapshot(snap: KvSnapshot) -> Self {
        KvStore {
            group: snap.group,
            data: snap.data,
            applied: snap.applied,
            partitioner: if snap.partitions > 0 {
                Some(Partitioner::new(snap.partitions))
            } else {
                None
            },
        }
    }

    /// Replaces this store's state with a snapshot's (checkpoint
    /// installation during state transfer).
    pub fn restore(&mut self, snap: KvSnapshot) {
        *self = KvStore::from_snapshot(snap);
    }

    /// A stable digest of the store's observable state (partition, data,
    /// applied count). Equal digests mean observably equivalent stores; used
    /// by the checkpoint round-trip property tests.
    pub fn digest(&self) -> u64 {
        // FNV-1a over a canonical rendering of the state.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut write = |bytes: &[u8]| {
            for b in bytes {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        write(&self.group.0.to_le_bytes());
        write(&self.applied.to_le_bytes());
        for (k, v) in &self.data {
            write(k.as_bytes());
            write(&[0xff]);
            write(&v.to_le_bytes());
        }
        hash
    }

    fn owns(&self, key: &str) -> bool {
        match &self.partitioner {
            None => true,
            Some(p) => p.partition_of(key) == self.group,
        }
    }

    /// Applies a command (the projection of it that concerns this partition).
    pub fn apply(&mut self, cmd: &KvCommand) {
        let _ = self.apply_read(cmd);
    }

    /// Applies a command and, if it is a [`KvCommand::Get`] for a key this
    /// partition owns, returns `Some(observed)` — the value the read sees at
    /// this point in the replica's apply order (`None` inside the `Some` for
    /// an absent key). Returns `None` for writes and for reads of keys owned
    /// by other partitions.
    pub fn apply_read(&mut self, cmd: &KvCommand) -> Option<Option<i64>> {
        self.applied += 1;
        match cmd {
            KvCommand::Put { key, value } => {
                if self.owns(key) {
                    self.data.insert(key.clone(), *value);
                }
                None
            }
            KvCommand::Add { key, delta } => {
                if self.owns(key) {
                    *self.data.entry(key.clone()).or_insert(0) += delta;
                }
                None
            }
            KvCommand::Transfer { from, to, amount } => {
                if self.owns(from) {
                    *self.data.entry(from.clone()).or_insert(0) -= amount;
                }
                if self.owns(to) {
                    *self.data.entry(to.clone()).or_insert(0) += amount;
                }
                None
            }
            KvCommand::Get { key } => {
                if self.owns(key) {
                    Some(self.data.get(key).copied())
                } else {
                    None
                }
            }
        }
    }

    /// Applies a delivered multicast message (decoding the command first).
    ///
    /// # Errors
    ///
    /// Returns an error if the payload does not decode to a [`KvCommand`].
    pub fn apply_message(&mut self, msg: &AppMessage) -> Result<(), WbamError> {
        let cmd = KvCommand::from_message(msg)?;
        self.apply(&cmd);
        Ok(())
    }

    /// Total of all values in this partition (used by balance-invariant tests).
    pub fn total(&self) -> i64 {
        self.data.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use wbam_types::ProcessId;

    use super::*;

    #[test]
    fn partitioner_is_deterministic_and_in_range() {
        let p = Partitioner::new(4);
        for key in ["a", "b", "alice", "bob", "x1", "x2"] {
            let g = p.partition_of(key);
            assert!(g.0 < 4);
            assert_eq!(g, p.partition_of(key));
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = Partitioner::new(0);
    }

    #[test]
    fn destination_covers_all_touched_keys() {
        let p = Partitioner::new(8);
        let cmd = KvCommand::transfer("alice", "bob", 10);
        let dest = p.destination_of(cmd.keys()).unwrap();
        assert!(dest.contains(p.partition_of("alice")));
        assert!(dest.contains(p.partition_of("bob")));
    }

    #[test]
    fn put_add_and_get() {
        let mut s = KvStore::new(GroupId(0));
        s.apply(&KvCommand::put("x", 5));
        s.apply(&KvCommand::add("x", -2));
        s.apply(&KvCommand::add("y", 7));
        assert_eq!(s.get("x"), Some(3));
        assert_eq!(s.get("y"), Some(7));
        assert_eq!(s.get("z"), None);
        assert_eq!(s.applied(), 3);
    }

    #[test]
    fn transfer_moves_value() {
        let mut s = KvStore::new(GroupId(0));
        s.apply(&KvCommand::put("a", 100));
        s.apply(&KvCommand::put("b", 0));
        s.apply(&KvCommand::transfer("a", "b", 30));
        assert_eq!(s.get("a"), Some(70));
        assert_eq!(s.get("b"), Some(30));
        assert_eq!(s.total(), 100);
    }

    #[test]
    fn partition_aware_store_applies_projection_only() {
        let p = Partitioner::new(2);
        let ga = p.partition_of("acct-a");
        // Find a key living on the other partition.
        let mut other_key = None;
        for i in 0..100 {
            let k = format!("acct-{i}");
            if p.partition_of(&k) != ga {
                other_key = Some(k);
                break;
            }
        }
        let other_key = other_key.expect("some key hashes to the other partition");
        let mut store_a = KvStore::with_partitioner(ga, p);
        let cmd = KvCommand::transfer("acct-a", &other_key, 25);
        store_a.apply(&KvCommand::put("acct-a", 100));
        store_a.apply(&cmd);
        // Only the debit side lives on partition A.
        assert_eq!(store_a.get("acct-a"), Some(75));
        assert_eq!(store_a.get(&other_key), None);
    }

    #[test]
    fn commands_round_trip_through_app_messages() {
        let p = Partitioner::new(4);
        let cmd = KvCommand::transfer("alice", "bob", 42);
        let msg = cmd.to_message(MsgId::new(ProcessId(30), 0), &p).unwrap();
        assert_eq!(msg.id, MsgId::new(ProcessId(30), 0));
        let decoded = KvCommand::from_message(&msg).unwrap();
        assert_eq!(decoded, cmd);
        let msg2 = KvCommand::put("alice", 1)
            .to_message(MsgId::new(ProcessId(30), 1), &p)
            .unwrap();
        assert_eq!(msg2.id.seq, 1);
        assert_eq!(
            KvCommand::from_message(&msg2).unwrap(),
            KvCommand::put("alice", 1)
        );
    }

    #[test]
    fn malformed_payload_is_rejected() {
        let msg = AppMessage::new(
            MsgId::new(ProcessId(1), 0),
            Destination::single(GroupId(0)),
            Payload::from("not json"),
        );
        assert!(KvCommand::from_message(&msg).is_err());
        let mut s = KvStore::new(GroupId(0));
        assert!(s.apply_message(&msg).is_err());
    }
}
