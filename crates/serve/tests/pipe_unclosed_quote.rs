//! The raw-CSV path (`served --pipe`) turns a record whose quote never
//! closes into an `error` line, and does so promptly. The reader scans each
//! appended line once, so reaching the 1 MiB record cap is linear work; a
//! reader that rescanned the whole joined record after every line would
//! need minutes for the short lines below.

use std::time::{Duration, Instant};
use tracelearn_serve::{serve_csv_stream, ModelSpec, Registry, ServeOptions};
use tracelearn_workloads::Workload;

#[test]
fn unclosed_quote_on_the_pipe_is_an_error_line() {
    let registry =
        Registry::load(&[ModelSpec::parse("counter=workload:counter:600").unwrap()]).unwrap();
    let monitors = registry.monitors();
    let monitor = &monitors["counter"];
    let mut csv = Vec::new();
    Workload::Counter
        .write_csv(20, 0xDAC2020, &mut csv)
        .unwrap();
    let mut csv = String::from_utf8(csv).unwrap();
    // An opening quote that never closes, then 1.2 MB of two-byte lines:
    // the record joins line after line until it passes the cap.
    csv.push_str("\"1\n");
    csv.push_str(&"1\n".repeat(600_000));
    let options = ServeOptions {
        workers: 1,
        calibration_events: 8,
        ..ServeOptions::default()
    };
    let mut output = Vec::new();
    let start = Instant::now();
    let outcome = serve_csv_stream(monitor, "pipe", csv.as_bytes(), &mut output, &options).unwrap();
    let elapsed = start.elapsed();
    assert!(outcome.failed);
    let output = String::from_utf8(output).unwrap();
    let last = output.lines().last().unwrap_or_default();
    assert!(last.starts_with("error pipe "), "last line: {last:?}");
    assert!(last.contains("unclosed quote"), "last line: {last:?}");
    assert!(
        elapsed < Duration::from_secs(30),
        "rejecting the record took {elapsed:?}"
    );
}
