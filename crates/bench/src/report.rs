//! Machine-readable benchmark output — the `BENCH_*.json` perf trajectory.
//!
//! Benches opt in by calling [`write_if_requested`] after their timed runs.
//! Output is requested either with the `TRACELEARN_BENCH_JSON=<path>`
//! environment variable or a `--json <path>` argument (both work through
//! `cargo bench --bench <name> -- --json <path>`); when neither is present
//! the call is a no-op, so ordinary bench runs are unaffected.
//!
//! The emitted document is self-describing and append-friendly:
//!
//! ```json
//! {
//!   "bench": "sat_incremental",
//!   "unix_time": 1753660800,
//!   "host_parallelism": 4,
//!   "results": [
//!     {"name": "incremental/rtlinux", "wall_ns": 6740088,
//!      "states": 5, "windows": 30}
//!   ]
//! }
//! ```
//!
//! The writer is hand-rolled (the workspace's vendored `serde` stub has no
//! serializer); only strings that parse as JSON numbers are emitted bare.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One benchmark measurement plus free-form context fields.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Name of the measurement within the bench (e.g. `incremental/rtlinux`).
    pub name: String,
    /// Wall-clock of the measured run, in nanoseconds.
    pub wall_ns: u128,
    /// Extra `key: value` fields; values that parse as JSON numbers are
    /// emitted unquoted.
    pub extra: Vec<(String, String)>,
}

impl BenchRecord {
    /// Creates a record from a measured wall-clock duration.
    pub fn new(name: impl Into<String>, wall: Duration) -> Self {
        BenchRecord {
            name: name.into(),
            wall_ns: wall.as_nanos(),
            extra: Vec::new(),
        }
    }

    /// Attaches an extra context field.
    #[must_use]
    pub fn with_extra(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.extra.push((key.into(), value.to_string()));
        self
    }
}

/// The output path requested via `TRACELEARN_BENCH_JSON` or `--json <path>`.
pub fn requested_path() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("TRACELEARN_BENCH_JSON") {
        if !path.is_empty() {
            return Some(PathBuf::from(path));
        }
    }
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

/// Serialises `records` for the named bench to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(path: &Path, bench: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    std::fs::write(path, render(bench, records))
}

/// Writes the records to the [requested](requested_path) output path, if any,
/// and reports the destination on stderr. Panics on I/O failure — a bench
/// asked to record results must not drop them silently.
pub fn write_if_requested(bench: &str, records: &[BenchRecord]) {
    if let Some(path) = requested_path() {
        write(&path, bench, records).unwrap_or_else(|error| {
            panic!("cannot write bench JSON to {}: {error}", path.display())
        });
        eprintln!("bench results written to {}", path.display());
    }
}

/// Renders the JSON document.
pub fn render(bench: &str, records: &[BenchRecord]) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": {},", json_string(bench));
    let _ = writeln!(out, "  \"unix_time\": {unix_time},");
    let _ = writeln!(out, "  \"host_parallelism\": {host_parallelism},");
    out.push_str("  \"results\": [\n");
    for (index, record) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"wall_ns\": {}",
            json_string(&record.name),
            record.wall_ns
        );
        for (key, value) in &record.extra {
            let _ = write!(out, ", {}: {}", json_string(key), json_value(value));
        }
        out.push('}');
        if index + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the `(name, wall_ns)` pairs from a bench JSON document written
/// by [`render`]. The reader is deliberately matched to the writer's
/// line-oriented output (one result object per line) rather than being a
/// general JSON parser — the workspace's vendored `serde` stub has no
/// deserializer, and these documents are only ever produced by [`render`].
pub fn parse_results(text: &str) -> Vec<(String, u128)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        // Names containing escapes are not produced by our benches; skip
        // them rather than mis-parse.
        let name = &rest[..name_end];
        let Some(wall_at) = line.find("\"wall_ns\": ") else {
            continue;
        };
        let digits: String = line[wall_at + 11..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(wall_ns) = digits.parse::<u128>() {
            out.push((name.to_owned(), wall_ns));
        }
    }
    out
}

/// Quotes and escapes a JSON string.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Emits numbers bare and everything else as a quoted string.
fn json_value(value: &str) -> String {
    if value.parse::<f64>().is_ok_and(f64::is_finite) {
        value.to_owned()
    } else {
        json_string(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_as_valid_looking_json() {
        let records = vec![
            BenchRecord::new("a/threads=1", Duration::from_millis(3))
                .with_extra("shards", 6)
                .with_extra("label", "multi\"shard"),
            BenchRecord::new("a/threads=4", Duration::from_millis(1))
                .with_extra("speedup_vs_1_thread", "3.000"),
        ];
        let text = render("parallel_learning", &records);
        assert!(text.contains("\"bench\": \"parallel_learning\""));
        assert!(text.contains("\"wall_ns\": 3000000"));
        assert!(text.contains("\"shards\": 6"));
        assert!(text.contains("\"label\": \"multi\\\"shard\""));
        assert!(text.contains("\"speedup_vs_1_thread\": 3.000"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn json_values_distinguish_numbers_from_strings() {
        assert_eq!(json_value("42"), "42");
        assert_eq!(json_value("2.5"), "2.5");
        assert_eq!(json_value("rtlinux"), "\"rtlinux\"");
        assert_eq!(json_value("NaN"), "\"NaN\"");
    }

    #[test]
    fn parse_results_round_trips_render() {
        let records = vec![
            BenchRecord::new("incremental/usb_attach", Duration::from_millis(121))
                .with_extra("states", 8),
            BenchRecord::new("from_scratch/rtlinux", Duration::from_millis(12)),
        ];
        let text = render("sat_incremental", &records);
        let parsed = parse_results(&text);
        assert_eq!(
            parsed,
            vec![
                ("incremental/usb_attach".to_owned(), 121_000_000u128),
                ("from_scratch/rtlinux".to_owned(), 12_000_000u128),
            ]
        );
    }

    #[test]
    fn requested_path_honours_the_environment() {
        // No env var and no --json flag in the test harness arguments.
        std::env::remove_var("TRACELEARN_BENCH_JSON");
        assert!(requested_path().is_none());
        std::env::set_var("TRACELEARN_BENCH_JSON", "/tmp/out.json");
        assert_eq!(requested_path(), Some(PathBuf::from("/tmp/out.json")));
        std::env::remove_var("TRACELEARN_BENCH_JSON");
    }
}
