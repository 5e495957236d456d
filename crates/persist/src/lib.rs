//! Crash-durable snapshots for tracelearn: a versioned, checksummed,
//! length-prefixed binary format with atomic publication.
//!
//! # What this crate stores
//!
//! * **Model snapshots** ([`ModelSnapshot`]) — a learned automaton with its
//!   alphabet, signature, symbols, statistics and the learner configuration
//!   it belongs to; self-contained enough to reconstruct a monitor.
//! * **Stream snapshots** ([`StreamSnapshot`]) — one serving stream's replay
//!   log and monitor-session checkpoint, the unit of `served` crash
//!   recovery.
//! * **Registry manifests** ([`RegistryManifest`]) — which models a daemon
//!   was serving, from which specs, at which hot-reload versions.
//!
//! # Durability contract
//!
//! Every file is a single envelope (magic, kind, version, payload length,
//! CRC-64/XZ trailer) published via write-temp → fsync → atomic rename →
//! parent-directory fsync. The load path's contract is the inverse: a file
//! that is torn, truncated, bit-flipped, of the wrong kind or version, or
//! internally inconsistent decodes to a typed [`PersistError`] — **never**
//! to a silently wrong value and never to a panic. The crate's adversarial
//! test corpus (every truncation prefix, every single-bit flip, hostile
//! length prefixes and nesting depths) holds the codecs to that contract.
//!
//! With the `fault-injection` feature the write and read paths consult the
//! process-global fault plan of `tracelearn-faults`, so chaos tests can
//! simulate torn writes, failed renames and short reads deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod envelope;
mod error;
mod inject;
mod wire;

pub use codec::model::{decode_model, encode_model, load_model, save_model, ModelSnapshot};
pub use codec::registry::{
    decode_registry, encode_registry, load_registry, save_registry, RegistryEntry, RegistryManifest,
};
pub use codec::stream::{decode_stream, encode_stream, load_stream, save_stream, StreamSnapshot};
pub use envelope::{crc64, read_file, write_atomic, SnapshotKind, HEADER_LEN, MAGIC, TRAILER_LEN};
pub use error::PersistError;
