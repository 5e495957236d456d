//! Payload codecs for each [`SnapshotKind`](crate::SnapshotKind).

pub(crate) mod common;
pub mod model;
pub mod registry;
pub mod stream;
