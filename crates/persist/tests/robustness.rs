//! Adversarial robustness suite for the snapshot codecs.
//!
//! The crate's durability contract has two halves, and this suite holds
//! every codec to both:
//!
//! 1. **Round-trip fidelity** — for arbitrary (property-generated) values,
//!    `decode(encode(v)) == v`, and re-encoding is byte-stable.
//! 2. **Damage is loud** — any file that is not exactly what the encoder
//!    wrote (truncated at *any* prefix, *any* single bit flipped, trailing
//!    garbage, wrong kind, stale temp files) decodes to a typed
//!    [`PersistError`]; it never panics and never yields a wrong value.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

use tracelearn_core::{Learner, LearnerConfig, SessionCheckpoint};
use tracelearn_persist::{
    decode_model, decode_registry, decode_stream, encode_model, encode_registry, encode_stream,
    load_model, load_stream, save_stream, write_atomic, ModelSnapshot, PersistError, RegistryEntry,
    RegistryManifest, StreamSnapshot,
};
use tracelearn_trace::{Valuation, Value};
use tracelearn_workloads::counter::{self, CounterConfig};

// ---- sample builders ----------------------------------------------------

/// Learns one small counter model per threshold, cached: model snapshots are
/// the only codec whose values are expensive to produce.
fn learned_snapshot(threshold: i64) -> &'static ModelSnapshot {
    static CACHE: OnceLock<Vec<(i64, ModelSnapshot)>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        [4, 8, 16]
            .into_iter()
            .map(|threshold| {
                let trace = counter::generate(&CounterConfig {
                    threshold,
                    length: 160,
                });
                let config = LearnerConfig::default();
                let model = Learner::new(config.clone()).learn(&trace).unwrap();
                (threshold, ModelSnapshot { config, model })
            })
            .collect()
    });
    &cache
        .iter()
        .find(|(t, _)| *t == threshold)
        .expect("threshold is one of the cached ones")
        .1
}

/// A deterministic stream snapshot used by the corpus tests (the proptest
/// properties build their own from generated parts).
fn sample_stream() -> StreamSnapshot {
    StreamSnapshot {
        stream: "tenant-a/stream-1".to_owned(),
        model: "counter".to_owned(),
        version: 3,
        seq: 9,
        log: vec![
            "data tenant-a/stream-1 count,direction".to_owned(),
            "data tenant-a/stream-1 7,up".to_owned(),
            "data tenant-a/stream-1 8,up".to_owned(),
        ],
        checkpoint: Some(checkpoint_from_parts(
            8,
            7,
            5,
            1,
            vec![vec![Value::Int(7), Value::Bool(true)]],
            vec![
                vec![Value::Int(6), Value::Bool(false)],
                vec![Value::Int(7), Value::Bool(true)],
            ],
            vec![0, 2, 1],
            vec![0b1011],
            true,
        )),
    }
}

fn sample_registry() -> RegistryManifest {
    RegistryManifest {
        entries: vec![
            RegistryEntry {
                name: "counter".to_owned(),
                spec: "workload:counter:600:229384224".to_owned(),
                version: 1,
            },
            RegistryEntry {
                name: "serial".to_owned(),
                spec: "csv:/var/lib/traces/serial.csv".to_owned(),
                version: 4,
            },
        ],
    }
}

#[allow(clippy::too_many_arguments)]
fn checkpoint_from_parts(
    events: u64,
    positions: u64,
    windows_checked: u64,
    deviations: u64,
    pending: Vec<Vec<Value>>,
    recent: Vec<Vec<Value>>,
    pred_window: Vec<u32>,
    tracker_words: Vec<u64>,
    tracker_alive: bool,
) -> SessionCheckpoint {
    SessionCheckpoint {
        events,
        positions,
        windows_checked,
        deviations,
        pending: pending.into_iter().map(Valuation::from_values).collect(),
        recent: recent.into_iter().map(Valuation::from_values).collect(),
        pred_window,
        tracker_words,
        tracker_alive,
    }
}

/// A unique scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tracelearn-persist-robustness-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---- proptest strategies ------------------------------------------------

/// Printable-ish strings with slashes and spaces — the shapes stream names,
/// model names and protocol log lines actually take, plus some multi-byte
/// UTF-8 to exercise the string codec's length accounting.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..68, 0..24).prop_map(|picks| {
        const ALPHABET: &[char] = &[
            'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
            'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H',
            'I', 'J', 'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y',
            'Z', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '/', '-', ' ', ',', 'µ', '→',
        ];
        picks
            .into_iter()
            .map(|i| ALPHABET[i as usize % ALPHABET.len()])
            .collect()
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    (0u8..3, -1_000_000i64..1_000_000).prop_map(|(tag, n)| match tag {
        0 => Value::Int(n),
        1 => Value::Bool(n & 1 == 1),
        _ => Value::Int(n.rotate_left(17)),
    })
}

fn arb_valuation_parts() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), 0..5)
}

fn arb_checkpoint() -> impl Strategy<Value = SessionCheckpoint> {
    (
        (0u64..1 << 48, 0u64..1 << 48, 0u64..1 << 48, 0u64..4096),
        proptest::collection::vec(arb_valuation_parts(), 0..4),
        proptest::collection::vec(arb_valuation_parts(), 0..6),
        proptest::collection::vec(0u32..64, 0..12),
        proptest::collection::vec(0u64..u64::MAX, 0..4),
        proptest::bool::ANY,
    )
        .prop_map(
            |((events, positions, windows, deviations), pending, recent, window, words, alive)| {
                checkpoint_from_parts(
                    events, positions, windows, deviations, pending, recent, window, words, alive,
                )
            },
        )
}

// ---- round-trip properties ----------------------------------------------

proptest! {
    /// Stream snapshots round-trip exactly for arbitrary names, versions,
    /// replay logs and session checkpoints, and re-encoding is byte-stable.
    #[test]
    fn stream_snapshots_round_trip(
        stream in arb_string(),
        model in arb_string(),
        counters in (0u64..1 << 32, 0u64..64),
        log in proptest::collection::vec(arb_string(), 0..12),
        with_checkpoint in proptest::bool::ANY,
        checkpoint in arb_checkpoint(),
    ) {
        let (version, extra_seq) = counters;
        let snapshot = StreamSnapshot {
            stream,
            model,
            version,
            // The codec rejects a log longer than `seq` (more retained
            // lines than inputs consumed is an impossible image).
            seq: log.len() as u64 + extra_seq,
            log,
            checkpoint: with_checkpoint.then_some(checkpoint),
        };
        let bytes = encode_stream(&snapshot);
        let restored = decode_stream(&bytes).expect("round trip");
        prop_assert_eq!(&restored, &snapshot);
        prop_assert_eq!(encode_stream(&restored), bytes);
    }

    /// Registry manifests round-trip exactly for arbitrary entries (names
    /// made unique, as the encoder's contract requires).
    #[test]
    fn registry_manifests_round_trip(
        raw in proptest::collection::vec((arb_string(), arb_string(), 0u64..1 << 32), 0..8),
    ) {
        let manifest = RegistryManifest {
            entries: raw
                .into_iter()
                .enumerate()
                .map(|(i, (name, spec, version))| RegistryEntry {
                    name: format!("{name}#{i}"),
                    spec,
                    version,
                })
                .collect(),
        };
        let bytes = encode_registry(&manifest);
        let restored = decode_registry(&bytes).expect("round trip");
        prop_assert_eq!(&restored, &manifest);
        prop_assert_eq!(encode_registry(&restored), bytes);
    }

    /// Learned-model snapshots round-trip byte-stably. The models themselves
    /// are drawn from a small cache (learning is the expensive part); the
    /// property is that *whatever* the learner produced survives the codec
    /// unchanged.
    #[test]
    fn model_snapshots_round_trip(pick in 0usize..3) {
        let snapshot = learned_snapshot([4, 8, 16][pick]);
        let bytes = encode_model(snapshot);
        let restored = decode_model(&bytes).expect("round trip");
        prop_assert_eq!(
            restored.model.automaton().transitions(),
            snapshot.model.automaton().transitions()
        );
        prop_assert_eq!(
            restored.model.predicate_strings(),
            snapshot.model.predicate_strings()
        );
        prop_assert_eq!(&restored.config, &snapshot.config);
        prop_assert_eq!(encode_model(&restored), bytes);
    }
}

// ---- adversarial corpus -------------------------------------------------

/// A decoder that must reject damage with a typed error.
type CorpusDecoder = fn(&[u8]) -> Result<(), PersistError>;

/// Every codec's bytes, labelled, with a decoder that must reject damage.
fn corpus() -> Vec<(&'static str, Vec<u8>, CorpusDecoder)> {
    vec![
        ("stream", encode_stream(&sample_stream()), |b| {
            decode_stream(b).map(drop)
        }),
        ("registry", encode_registry(&sample_registry()), |b| {
            decode_registry(b).map(drop)
        }),
        ("model", encode_model(learned_snapshot(8)), |b| {
            decode_model(b).map(drop)
        }),
    ]
}

/// Truncation at *every* prefix length of *every* codec's output is a typed
/// error — never a panic, never a partial value.
#[test]
fn every_truncation_prefix_is_rejected() {
    for (kind, bytes, decode) in corpus() {
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("truncated snapshot accepted");
            assert!(
                matches!(err, PersistError::Truncated { .. } | PersistError::BadMagic),
                "{kind} prefix of {cut} bytes gave unexpected {err:?}"
            );
        }
    }
}

/// Every single-bit flip anywhere in the small codecs' output is rejected
/// (the checksum trailer guarantees it); the larger model snapshot is
/// covered byte-by-byte with the flipped bit position rotating, so every
/// offset and every bit position are both exercised.
#[test]
fn every_single_bit_flip_is_rejected() {
    for (kind, bytes, decode) in corpus() {
        let exhaustive = kind != "model";
        for offset in 0..bytes.len() {
            let bits: &[u32] = if exhaustive {
                &[0, 1, 2, 3, 4, 5, 6, 7]
            } else {
                &[(offset % 8) as u32][..]
            };
            for &bit in bits {
                let mut damaged = bytes.clone();
                damaged[offset] ^= 1 << bit;
                assert!(
                    decode(&damaged).is_err(),
                    "{kind} flip at byte {offset} bit {bit} was accepted"
                );
            }
        }
    }
}

/// Trailing garbage after a well-formed envelope is a typed error, not
/// silently ignored slack.
#[test]
fn trailing_bytes_are_rejected() {
    for (kind, mut bytes, decode) in corpus() {
        bytes.extend_from_slice(b"junk");
        assert!(
            matches!(
                decode(&bytes),
                Err(PersistError::TrailingBytes { extra: 4 })
            ),
            "{kind} accepted trailing bytes"
        );
    }
}

/// Loading a file of the wrong kind is a typed `WrongKind` error — a stream
/// snapshot can never be mistaken for a model, whatever the file is named.
#[test]
fn cross_kind_loads_are_typed_errors() {
    let dir = scratch_dir("cross-kind");
    let path = dir.join("model-counter.snap"); // lies about its contents
    save_stream(&path, &sample_stream()).unwrap();
    assert!(matches!(
        load_model(&path),
        Err(PersistError::WrongKind { .. })
    ));
    // The same bytes load fine through the right codec.
    assert_eq!(load_stream(&path).unwrap(), sample_stream());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Atomic publication is robust to duplicate rename targets: a stale temp
/// file from a crashed writer, pre-existing garbage under the final name,
/// and repeated saves to the same path all end with the latest good bytes
/// under the final name and no temp residue.
#[test]
fn duplicate_rename_targets_are_safe() {
    let dir = scratch_dir("dup-rename");
    let path = dir.join("stream-a.snap");
    let tmp = dir.join("stream-a.snap.tmp");

    // A crashed writer left a torn temp file behind.
    std::fs::write(&tmp, b"torn garbage from a dead writer").unwrap();
    // And earlier garbage squats under the final name itself.
    std::fs::write(
        &path,
        b"definitely not a snapshot envelope, but long enough to look",
    )
    .unwrap();
    assert!(matches!(load_stream(&path), Err(PersistError::BadMagic)));

    let first = sample_stream();
    save_stream(&path, &first).unwrap();
    assert_eq!(load_stream(&path).unwrap(), first);
    assert!(!tmp.exists(), "temp residue after publication");

    // Publishing again over the same target replaces it atomically.
    let second = StreamSnapshot {
        seq: first.seq + 1,
        log: Vec::new(),
        ..first
    };
    save_stream(&path, &second).unwrap();
    assert_eq!(load_stream(&path).unwrap(), second);
    assert!(!tmp.exists());

    // Low-level duplicate targets across kinds behave the same way.
    write_atomic(&path, &encode_registry(&sample_registry())).unwrap();
    assert!(matches!(
        load_stream(&path),
        Err(PersistError::WrongKind { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// On-disk damage surfaces through the `load_*` path exactly like in-memory
/// damage: truncate the file → `Truncated`; flip a byte → `ChecksumMismatch`.
#[test]
fn damaged_files_on_disk_load_to_typed_errors() {
    let dir = scratch_dir("disk-damage");
    let path = dir.join("stream-b.snap");
    save_stream(&path, &sample_stream()).unwrap();
    let good = std::fs::read(&path).unwrap();

    for cut in [0, 1, good.len() / 2, good.len() - 1] {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(
            matches!(
                load_stream(&path),
                Err(PersistError::Truncated { .. } | PersistError::BadMagic)
            ),
            "disk truncation to {cut} bytes not rejected"
        );
    }

    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        load_stream(&path),
        Err(PersistError::ChecksumMismatch)
    ));

    std::fs::write(&path, &good).unwrap();
    assert_eq!(load_stream(&path).unwrap(), sample_stream());
    std::fs::remove_dir_all(&dir).unwrap();
}
