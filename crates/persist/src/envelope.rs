//! The snapshot envelope: magic, kind, version, length, checksum — and the
//! crash-safe file protocol around it.
//!
//! Every snapshot file is one envelope:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TLSNAP1\0"
//! 8       2     kind   (u16 LE, see SnapshotKind)
//! 10      2     version (u16 LE, per-kind codec version)
//! 12      8     payload length (u64 LE)
//! 20      n     payload
//! 20+n    8     CRC-64/XZ over bytes [0, 20+n) (u64 LE)
//! ```
//!
//! Files are published with write-temp → fsync → atomic rename → fsync of
//! the parent directory, so a reader never observes a half-written file
//! under the final name on a well-behaved filesystem — and if one appears
//! anyway (torn write, bit rot, truncation), [`decode`] detects and rejects
//! it with a typed [`PersistError`] instead of loading garbage.

use crate::error::PersistError;
use crate::inject;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// The 8-byte file magic: `TLSNAP` + format generation + NUL.
pub const MAGIC: [u8; 8] = *b"TLSNAP1\0";

/// Envelope overhead: magic + kind + version + length header, and the
/// checksum trailer.
pub const HEADER_LEN: usize = 20;
/// Length of the checksum trailer.
pub const TRAILER_LEN: usize = 8;

/// What a snapshot file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A learned model plus the learner configuration it was learned with.
    Model,
    /// One serving stream's replay log and monitor-session checkpoint.
    Stream,
    /// The serving registry manifest: model names, specs and versions.
    Registry,
}

impl SnapshotKind {
    /// The wire code of this kind.
    pub fn code(self) -> u16 {
        match self {
            SnapshotKind::Model => 1,
            // Code 2 belonged to the retired warm-start snapshot and is
            // never reused: such a file fails as a `WrongKind`.
            SnapshotKind::Stream => 3,
            SnapshotKind::Registry => 4,
        }
    }

    /// The newest codec version this build writes (and the only one it
    /// reads; the version field exists so future builds can fan out).
    pub fn current_version(self) -> u16 {
        1
    }
}

/// CRC-64/XZ (reflected ECMA-182 polynomial) — the integrity check of the
/// envelope. Chosen over a 32-bit check because snapshots can reach many
/// megabytes, and over a cryptographic hash because the threat model is
/// corruption, not forgery.
pub fn crc64(bytes: &[u8]) -> u64 {
    fn table() -> &'static [u64; 256] {
        static TABLE: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            // Reflected ECMA-182 polynomial, as used by CRC-64/XZ.
            const POLY: u64 = 0xC96C_5795_D787_0F42;
            std::array::from_fn(|i| {
                let mut crc = i as u64;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    };
                }
                crc
            })
        })
    }
    let table = table();
    let mut crc = !0u64;
    for &byte in bytes {
        // The index is masked to 0..256, so the lookup can never miss; the
        // fallback exists to keep the lookup total.
        let entry = table.get(((crc ^ byte as u64) & 0xFF) as usize);
        crc = (crc >> 8) ^ entry.copied().unwrap_or_default();
    }
    !crc
}

/// Wraps `payload` in a complete envelope for `kind` at its current version.
pub fn encode(kind: SnapshotKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind.code().to_le_bytes());
    out.extend_from_slice(&kind.current_version().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates an envelope and returns its payload slice.
///
/// # Errors
///
/// Every way `bytes` can fail to be a well-formed, intact envelope of
/// `expected` kind maps to its own [`PersistError`] variant; see the check
/// order in the implementation (magic, length, checksum, kind, version).
pub fn decode(bytes: &[u8], expected: SnapshotKind) -> Result<&[u8], PersistError> {
    // Total reads of the header/trailer fields: a miss is a truncation.
    let truncated = |needed| PersistError::Truncated {
        needed,
        got: bytes.len(),
    };
    let le_u16 = |at: usize| -> Option<u16> {
        let field = bytes.get(at..at.checked_add(2)?)?;
        Some(u16::from_le_bytes(field.try_into().ok()?))
    };
    let le_u64 = |at: usize| -> Option<u64> {
        let field = bytes.get(at..at.checked_add(8)?)?;
        Some(u64::from_le_bytes(field.try_into().ok()?))
    };
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(truncated(HEADER_LEN + TRAILER_LEN));
    }
    if bytes.get(..8) != Some(MAGIC.as_slice()) {
        return Err(PersistError::BadMagic);
    }
    let kind = le_u16(8).ok_or_else(|| truncated(HEADER_LEN))?;
    let version = le_u16(10).ok_or_else(|| truncated(HEADER_LEN))?;
    let payload_len = le_u64(12).ok_or_else(|| truncated(HEADER_LEN))?;
    let payload_len = usize::try_from(payload_len).map_err(|_| truncated(usize::MAX))?;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or_else(|| truncated(usize::MAX))?;
    if bytes.len() < total {
        return Err(truncated(total));
    }
    if bytes.len() > total {
        return Err(PersistError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let stored = le_u64(total - TRAILER_LEN).ok_or_else(|| truncated(total))?;
    let checked = bytes
        .get(..total - TRAILER_LEN)
        .ok_or_else(|| truncated(total))?;
    if crc64(checked) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    if kind != expected.code() {
        return Err(PersistError::WrongKind {
            expected: expected.code(),
            found: kind,
        });
    }
    if version != expected.current_version() {
        return Err(PersistError::UnsupportedVersion { kind, version });
    }
    bytes
        .get(HEADER_LEN..HEADER_LEN + payload_len)
        .ok_or_else(|| truncated(total))
}

/// Publishes `bytes` at `path` crash-safely: write to a `.tmp` sibling,
/// fsync it, atomically rename it over `path`, and fsync the parent
/// directory so the rename itself is durable.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on any filesystem failure; the temp file is
/// removed on a failed rename so retries start clean.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        // A torn-write fault cuts the bytes short and skips the fsync —
        // the crash image of a host that died mid-write — but still lets
        // the rename land so the loader must catch the damage.
        match inject::torn_write_len(bytes.len()) {
            Some(cut) => {
                file.write_all(bytes.get(..cut).unwrap_or(bytes))?;
            }
            None => {
                file.write_all(bytes)?;
                file.sync_all()?;
            }
        }
    }
    if inject::rename_fails() {
        let _ = fs::remove_file(&tmp);
        return Err(PersistError::Io(std::io::Error::other(
            "fault-injection: injected persist.rename failure",
        )));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(PersistError::Io(e));
    }
    if let Some(parent) = parent {
        // Directory fsync makes the rename durable; not all platforms allow
        // opening a directory for sync, so failures here are best-effort.
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads a snapshot file whole. A `persist.short` fault truncates the
/// returned bytes at a seeded offset, as if the read raced a truncation.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on any filesystem failure.
pub fn read_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    let mut bytes = fs::read(path)?;
    if let Some(cut) = inject::short_read_len(bytes.len()) {
        bytes.truncate(cut);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn envelope_round_trips() {
        let payload = b"some payload bytes";
        let bytes = encode(SnapshotKind::Model, payload);
        assert_eq!(decode(&bytes, SnapshotKind::Model).unwrap(), payload);
    }

    #[test]
    fn every_truncation_prefix_is_rejected() {
        let bytes = encode(SnapshotKind::Stream, b"0123456789");
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut], SnapshotKind::Stream).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated { .. } | PersistError::BadMagic),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(SnapshotKind::Registry, b"payload");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    decode(&flipped, SnapshotKind::Registry).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn kind_version_and_trailing_bytes_are_typed() {
        let bytes = encode(SnapshotKind::Model, b"p");
        assert!(matches!(
            decode(&bytes, SnapshotKind::Stream),
            Err(PersistError::WrongKind {
                expected: 3,
                found: 1
            })
        ));
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            decode(&extra, SnapshotKind::Model),
            Err(PersistError::TrailingBytes { extra: 1 })
        ));
        let mut not_snap = bytes.clone();
        not_snap[0] = b'X';
        assert!(matches!(
            decode(&not_snap, SnapshotKind::Model),
            Err(PersistError::BadMagic)
        ));
        // A future version is refused, not misread. The version bytes are
        // covered by the checksum, so the trailer must be recomputed.
        let mut future = bytes;
        future[10] = 9;
        let total = future.len();
        let crc = crc64(&future[..total - TRAILER_LEN]).to_le_bytes();
        future[total - TRAILER_LEN..].copy_from_slice(&crc);
        assert!(matches!(
            decode(&future, SnapshotKind::Model),
            Err(PersistError::UnsupportedVersion {
                kind: 1,
                version: 9
            })
        ));
    }

    #[test]
    fn retired_kind_code_is_a_wrong_kind_error() {
        // Kind 2 (the retired warm-start snapshot) with a valid checksum:
        // every reader rejects it by kind.
        let mut bytes = encode(SnapshotKind::Model, b"payload");
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        let total = bytes.len();
        let crc = crc64(&bytes[..total - TRAILER_LEN]).to_le_bytes();
        bytes[total - TRAILER_LEN..].copy_from_slice(&crc);
        for kind in [
            SnapshotKind::Model,
            SnapshotKind::Stream,
            SnapshotKind::Registry,
        ] {
            assert!(matches!(
                decode(&bytes, kind),
                Err(PersistError::WrongKind { found: 2, .. })
            ));
        }
    }

    #[test]
    fn write_atomic_publishes_and_read_file_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("tracelearn-persist-env-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let bytes = encode(SnapshotKind::Registry, b"manifest");
        write_atomic(&path, &bytes).unwrap();
        // Overwrite: the rename replaces the old snapshot atomically.
        let newer = encode(SnapshotKind::Registry, b"manifest-v2");
        write_atomic(&path, &newer).unwrap();
        let read = read_file(&path).unwrap();
        assert_eq!(
            decode(&read, SnapshotKind::Registry).unwrap(),
            b"manifest-v2"
        );
        assert!(!dir.join("snap.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
