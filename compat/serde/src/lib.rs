//! In-tree compatibility shim for the subset of the `serde` API that the
//! WBAM workspace uses.
//!
//! The workspace builds hermetically (no network, no crates.io); this crate
//! provides the `Serialize` / `Deserialize` traits, the `DeserializeOwned`
//! marker and the `#[derive(Serialize, Deserialize)]` macros against a small
//! data model (null, bool, integer, float, string, sequence, struct, enum
//! variant). The model is streamed, not materialised: `Serialize` pushes its
//! events into a [`ser::Sink`], `Deserialize` pulls them from a
//! [`de::Source`], and a data format implements the pair. Structs and enums
//! reach a format with both their names and their declaration positions, so
//! the format picks: the binary codec (`serde_binary`) writes positions
//! straight into frame bytes, JSON (`serde_json`) goes through the
//! [`value::Value`] tree, itself one more sink and source, which keeps the
//! names.
//!
//! The surface is intentionally small: no zero-copy deserialisation, no
//! custom field attributes, externally tagged enums only. That covers every
//! message, configuration and statistics type in the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod value;

pub mod de;
pub mod ser;

pub use de::Deserialize;
pub use ser::Serialize;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
