//! The serving engine: many concurrent event streams, one supervised pool.
//!
//! [`serve_commands`] drives the multiplexed protocol of [`crate::protocol`]:
//! a dispatcher thread parses commands and shards them onto a fixed pool of
//! scoped workers by hashing the stream name, so every stream is owned by
//! exactly one worker and its events are checked in arrival order without any
//! cross-worker locking. The pool is *supervised* (see [`crate::mux`]):
//! worker queues are bounded, crashed or stalled workers are replaced and
//! their streams replayed from bounded logs, and beyond the high-water mark
//! new streams are refused with a `busy` line instead of admitted into a
//! degrading pool.
//!
//! [`serve_csv_stream`] is the single-stream fast path — a raw CSV document
//! with no command framing — used by the daemon's `--pipe` mode and by each
//! Unix-socket connection of [`serve_socket`].

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::backoff::DecorrelatedJitter;
use crate::inject;
use crate::latency::LatencyHistogram;
use crate::mux::{Mux, SharedTotals};
use crate::protocol::{
    busy_line, error_line, info_line, parse_command, summary_line, verdict_line, Command,
};
use crate::registry::Registry;
use tracelearn_core::{Monitor, DEFAULT_CALIBRATION_EVENTS};
use tracelearn_trace::StreamingCsvReader;

/// Tuning knobs for a serving run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Number of pool workers for the multiplexed protocol (streams are
    /// sharded over them by name; at least 1).
    pub workers: usize,
    /// Observations each session buffers before calibrating its abstractor.
    pub calibration_events: usize,
    /// Bound of each worker's task queue; a full queue applies backpressure
    /// to the dispatcher (at least 1).
    pub queue_capacity: usize,
    /// High-water mark: beyond this many open streams, new `open`s are
    /// refused with a `busy` line. 0 means unlimited.
    pub max_open_streams: usize,
    /// Events of each stream kept for crash replay. A stream that outgrows
    /// the budget is sacrificed if its worker dies. 0 disables replay.
    pub replay_budget: usize,
    /// How long a worker may sit behind on its queue with no forward
    /// progress before the watchdog condemns and replaces it.
    pub stall_timeout: Duration,
    /// Shutdown deadline: how long end-of-input waits for workers to drain
    /// and close their streams before condemning the remainder.
    pub drain_timeout: Duration,
    /// Read deadline on socket connections; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Bound on one protocol (or socket model-header) line; longer lines
    /// are rejected with an `error` line, never buffered whole.
    pub max_line_bytes: usize,
    /// Per-tenant admission quota: beyond this many open streams sharing a
    /// stream-name prefix (before the first `/`), new `open`s of that
    /// tenant are refused with a tenant-scoped `busy` line. 0 disables the
    /// quota.
    pub max_streams_per_tenant: usize,
    /// Directory for crash-durable state: model and stream snapshots are
    /// checkpointed here and recovered at startup. `None` disables
    /// durability entirely.
    pub state_dir: Option<PathBuf>,
    /// Checkpoint cadence for the multiplexed protocol: a checkpoint cycle
    /// runs every this many parsed commands (plus one final cycle before a
    /// graceful drain). 0 keeps only the final cycle.
    pub checkpoint_every: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        ServeOptions {
            workers,
            calibration_events: DEFAULT_CALIBRATION_EVENTS,
            queue_capacity: 512,
            max_open_streams: 1024,
            replay_budget: 8192,
            stall_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(30),
            read_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: 1 << 20,
            max_streams_per_tenant: 0,
            state_dir: None,
            checkpoint_every: 256,
        }
    }
}

/// What a serving run processed, summed over all streams.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Streams that were opened and reached their close (explicit or EOF),
    /// including failed ones.
    pub streams: usize,
    /// Events pushed through monitor sessions.
    pub events: usize,
    /// Deviations across all stream reports.
    pub deviations: usize,
    /// Streams that aborted before a summary could be emitted (bad header,
    /// decode failure, lost worker past replay). Each was reported on its
    /// own error line; none of them took the run down.
    pub failed: usize,
    /// `open`s refused with a `busy` line — at the global high-water mark,
    /// at a tenant quota, or during a drain.
    pub shed: usize,
    /// Worker incarnations replaced after a crash or stall.
    pub restarted: usize,
    /// Records replayed into replacement workers.
    pub replayed: usize,
    /// Streams resumed from state-directory snapshots at startup.
    pub recovered: usize,
    /// Snapshots discarded at startup (unreadable, model gone or
    /// reversioned, replay mismatch); each was reported on a `reset` line.
    pub reset: usize,
    /// Stream snapshots durably written across all checkpoint cycles.
    pub checkpoints: usize,
    /// Per-tenant share of `shed`: `open`s refused at that tenant's quota.
    pub tenant_shed: BTreeMap<String, usize>,
    /// Whether an injected checkpoint interrupt "killed" the run: input
    /// stopped mid-checkpoint and no further state was written, exactly as
    /// a real `kill -9` would leave things.
    pub aborted: bool,
    /// Verdict latencies of admitted streams (merged at stream close).
    pub admitted_latency: LatencyHistogram,
    /// Dispatcher-side handling latencies of shed `open`s.
    pub shed_latency: LatencyHistogram,
}

/// What one raw CSV stream produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Events pushed through the session.
    pub events: usize,
    /// Deviations in the final report.
    pub deviations: usize,
    /// Whether the stream aborted before a summary could be emitted.
    pub failed: bool,
}

/// Writes one output line, honouring any armed transport faults (dropped or
/// torn lines). The production build compiles this down to `writeln!`.
pub(crate) fn write_line<W: Write>(output: &mut W, line: &str) -> io::Result<()> {
    if inject::transport_drop() {
        return Ok(());
    }
    if let Some(cut) = inject::transport_half(line.len()) {
        // A torn write: a prefix reaches the wire, the newline does not.
        let torn = line.get(..cut).unwrap_or("");
        return output.write_all(torn.as_bytes());
    }
    writeln!(output, "{line}")
}

pub(crate) fn emit<W: Write>(output: &Mutex<W>, line: &str) {
    let mut guard = output
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // A reader that hung up is not the monitor's problem; keep serving.
    let _ = write_line(&mut *guard, line);
}

/// Flushes the shared output, so a buffered writer hands on every line
/// written so far. A failed flush is ignored for the same reason as in
/// [`emit`].
pub(crate) fn flush<W: Write>(output: &Mutex<W>) {
    let mut guard = output
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let _ = guard.flush();
}

/// Outcome of one bounded line read.
enum BoundedLine {
    Eof,
    Line,
    /// The line exceeded the cap; its remainder was discarded.
    Oversized,
}

/// Reads one input line into `line`, never buffering more than `max + 1`
/// bytes of it. An oversized line is discarded through to its newline so
/// the protocol stays in sync.
fn read_bounded_line<R: BufRead>(
    input: &mut R,
    line: &mut String,
    max: usize,
) -> io::Result<BoundedLine> {
    let read = {
        let mut limited = Read::take(&mut *input, max as u64 + 1);
        limited.read_line(line)?
    };
    if read == 0 {
        return Ok(BoundedLine::Eof);
    }
    if line.ends_with('\n') || line.len() <= max {
        return Ok(BoundedLine::Line);
    }
    loop {
        let (skip, done) = {
            let buffer = input.fill_buf()?;
            if buffer.is_empty() {
                break;
            }
            match buffer.iter().position(|&byte| byte == b'\n') {
                Some(position) => (position + 1, true),
                None => (buffer.len(), false),
            }
        };
        input.consume(skip);
        if done {
            break;
        }
    }
    Ok(BoundedLine::Oversized)
}

/// Serves the multiplexed `open`/`data`/`close`/`reload`/`shutdown`
/// protocol from `input`, writing verdicts, summaries, errors, `busy`
/// refusals, `recovered`/`reset` startup reports and supervision `info`
/// lines to `output`.
///
/// Commands for the same stream are processed strictly in input order; the
/// interleaving of *different* streams' output lines depends on worker
/// scheduling (use one worker for fully deterministic output). Worker
/// crashes and stalls are survived by replaying the affected streams from
/// bounded logs — see [`ServeOptions::replay_budget`] — and are visible only
/// as `info` lines and the [`ServeSummary::restarted`] counter.
///
/// With [`ServeOptions::state_dir`] set, open streams are checkpointed
/// every [`ServeOptions::checkpoint_every`] commands (and once more before
/// the drain), and any snapshots found in the directory are recovered —
/// verified by replay — before the first command is read. A `shutdown`
/// command stops reading input and drains every open stream as if its
/// `close` arrived.
///
/// # Errors
///
/// Returns the underlying I/O error when reading `input` fails. Malformed
/// commands and per-stream monitoring failures are reported as `error` lines
/// instead.
pub fn serve_commands<R: BufRead, W: Write + Send>(
    registry: &mut Registry,
    mut input: R,
    output: W,
    options: &ServeOptions,
) -> io::Result<ServeSummary> {
    let max_line = options.max_line_bytes.max(1);
    let output = Mutex::new(output);
    let totals = SharedTotals::default();
    let latency = Mutex::new(LatencyHistogram::new());
    let stats = thread::scope(|scope| -> io::Result<crate::mux::MuxStats> {
        let mut mux = Mux::new(scope, &mut *registry, options, &output, &totals, &latency);
        mux.recover();
        let mut line = String::new();
        let mut since_checkpoint = 0usize;
        loop {
            line.clear();
            match read_bounded_line(&mut input, &mut line, max_line)? {
                BoundedLine::Eof => break,
                BoundedLine::Oversized => emit(
                    &output,
                    &error_line("-", &format!("line exceeds {max_line} bytes")),
                ),
                BoundedLine::Line => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_command(&line) {
                        Ok(Command::Shutdown) => {
                            // Graceful drain: stop reading, refuse nothing
                            // already open, and let the pool close every
                            // stream as if its `close` arrived.
                            mux.start_draining();
                            break;
                        }
                        Ok(command) => {
                            mux.dispatch(command);
                            since_checkpoint += 1;
                            if options.checkpoint_every != 0
                                && since_checkpoint >= options.checkpoint_every
                            {
                                since_checkpoint = 0;
                                mux.checkpoint(false);
                                if mux.is_aborted() {
                                    // An injected mid-checkpoint "kill":
                                    // stop as a crash would, durability
                                    // work included.
                                    break;
                                }
                            }
                        }
                        Err(message) => emit(&output, &error_line("-", &message)),
                    }
                }
            }
        }
        if !mux.is_aborted() {
            mux.checkpoint(true);
        }
        Ok(mux.shutdown())
    })?;
    // The pool is gone, so every stream's pinned monitor clone has been
    // dropped: models retired by `reload` whose last stream closed can be
    // reported deterministically.
    if !stats.aborted {
        for (model, version) in registry.sweep_retired() {
            emit(
                &output,
                &info_line(&model, &format!("version {version} retired")),
            );
        }
    }
    let admitted_latency = latency
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    Ok(ServeSummary {
        streams: totals.streams(),
        events: totals.events(),
        deviations: totals.deviations(),
        failed: totals.failed(),
        shed: stats.shed,
        restarted: stats.restarted,
        replayed: stats.replayed,
        recovered: stats.recovered,
        reset: stats.reset,
        checkpoints: stats.checkpoints,
        tenant_shed: stats.tenant_shed,
        aborted: stats.aborted,
        admitted_latency,
        shed_latency: stats.shed_latency,
    })
}

/// Serves one raw CSV document (header first, no command framing) against a
/// single model, emitting the same verdict/summary/error lines as the
/// multiplexed protocol.
///
/// # Errors
///
/// Returns the underlying I/O error when writing `output` fails; trace and
/// monitoring failures become `error` lines and a `failed` outcome.
pub fn serve_csv_stream<R: BufRead, W: Write>(
    monitor: &Monitor,
    stream_name: &str,
    input: R,
    mut output: W,
    options: &ServeOptions,
) -> io::Result<StreamOutcome> {
    let mut outcome = StreamOutcome::default();
    let failed = |output: &mut W, message: &str, outcome: &mut StreamOutcome| {
        outcome.failed = true;
        write_line(output, &error_line(stream_name, message))
    };
    let mut reader = match StreamingCsvReader::new(input) {
        Ok(reader) => reader,
        Err(e) => {
            failed(&mut output, &e.to_string(), &mut outcome)?;
            return Ok(outcome);
        }
    };
    if reader.signature() != monitor.model().signature() {
        failed(
            &mut output,
            "stream signature does not match the model",
            &mut outcome,
        )?;
        return Ok(outcome);
    }
    let mut session =
        match monitor.session_with_calibration(reader.signature(), options.calibration_events) {
            Ok(session) => session,
            Err(e) => {
                failed(&mut output, &e.to_string(), &mut outcome)?;
                return Ok(outcome);
            }
        };
    let mut latency = LatencyHistogram::new();
    let mut seq = 0u64;
    loop {
        let observation = match reader.next_observation() {
            Ok(Some(observation)) => observation,
            Ok(None) => break,
            Err(e) => {
                failed(&mut output, &e.to_string(), &mut outcome)?;
                return Ok(outcome);
            }
        };
        let start = Instant::now();
        match session.push_event(&observation, reader.symbols()) {
            Ok(verdict) => {
                latency.record(start.elapsed());
                outcome.events += 1;
                seq += 1;
                write_line(&mut output, &verdict_line(stream_name, seq, &verdict))?;
            }
            Err(e) => {
                failed(&mut output, &e.to_string(), &mut outcome)?;
                return Ok(outcome);
            }
        }
    }
    match session.finish(reader.symbols()) {
        Ok(report) => {
            outcome.deviations = report.deviations.len();
            write_line(
                &mut output,
                &summary_line(stream_name, outcome.events, &report, &latency),
            )?;
        }
        Err(e) => failed(&mut output, &e.to_string(), &mut outcome)?,
    }
    Ok(outcome)
}

/// Whether an accept error is worth retrying (with decorrelated-jitter
/// pacing) rather than fatal to the listener.
fn transient_accept_error(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::ConnectionAborted
    )
}

/// Accepts Unix-socket connections on `path` and serves each as one raw CSV
/// stream: the first line names the registry model, the rest is the CSV
/// document. Connections are handled on scoped threads with a read deadline
/// ([`ServeOptions::read_timeout`]); beyond
/// [`ServeOptions::max_open_streams`] concurrent connections, new ones are
/// refused with a `busy` line and counted as shed. Transient accept errors
/// are retried with decorrelated-jitter pacing. `max_connections` bounds how
/// many are accepted (shed included) before returning (`None` serves
/// forever).
///
/// # Errors
///
/// Returns binding errors and non-transient accept errors; per-connection
/// failures are reported on that connection and counted as failed streams.
pub fn serve_socket(
    path: &Path,
    monitors: &BTreeMap<String, Monitor>,
    options: &ServeOptions,
    max_connections: Option<usize>,
) -> io::Result<ServeSummary> {
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let active = Arc::new(AtomicUsize::new(0));
    let shed = AtomicUsize::new(0);
    let mut backoff = DecorrelatedJitter::new(
        Duration::from_millis(5),
        Duration::from_millis(500),
        0xDAC2020,
    );
    thread::scope(|scope| -> io::Result<ServeSummary> {
        let mut handles = Vec::new();
        let mut accepted = 0usize;
        while !max_connections.is_some_and(|max| accepted >= max) {
            let connection = match listener.accept() {
                Ok((connection, _)) => {
                    backoff.reset();
                    connection
                }
                Err(error) if transient_accept_error(&error) => {
                    thread::sleep(backoff.next_delay());
                    continue;
                }
                Err(error) => return Err(error),
            };
            let index = accepted;
            accepted += 1;
            let limit = options.max_open_streams;
            let open = active.load(Ordering::Relaxed);
            if limit != 0 && open >= limit {
                // Overload: refuse explicitly instead of queueing the
                // connection behind a saturated pool.
                shed.fetch_add(1, Ordering::Relaxed);
                let mut connection = connection;
                let _ = write_line(
                    &mut connection,
                    &busy_line(&format!("conn{index}"), open, limit),
                );
                continue;
            }
            active.fetch_add(1, Ordering::Relaxed);
            let active = Arc::clone(&active);
            handles.push(scope.spawn(move || {
                let outcome = handle_connection(connection, index, monitors, options);
                active.fetch_sub(1, Ordering::Relaxed);
                outcome
            }));
        }
        let mut summary = ServeSummary::default();
        for handle in handles {
            summary.streams += 1;
            match handle.join() {
                Ok(outcome) => {
                    summary.events += outcome.events;
                    summary.deviations += outcome.deviations;
                    summary.failed += usize::from(outcome.failed);
                }
                Err(_) => summary.failed += 1,
            }
        }
        summary.shed = shed.load(Ordering::Relaxed);
        Ok(summary)
    })
}

fn handle_connection(
    connection: UnixStream,
    index: usize,
    monitors: &BTreeMap<String, Monitor>,
    options: &ServeOptions,
) -> StreamOutcome {
    let stream_name = format!("conn{index}");
    let aborted = StreamOutcome {
        failed: true,
        ..StreamOutcome::default()
    };
    // A slow-loris client must not pin this thread forever.
    if connection.set_read_timeout(options.read_timeout).is_err() {
        return aborted;
    }
    let Ok(read_half) = connection.try_clone() else {
        return aborted;
    };
    let mut writer = connection;
    let mut reader = BufReader::new(read_half);
    let mut first = String::new();
    let max_line = options.max_line_bytes.max(1);
    let read = {
        let mut limited = Read::take(&mut reader, max_line as u64 + 1);
        limited.read_line(&mut first)
    };
    match read {
        Ok(_) if first.len() > max_line && !first.ends_with('\n') => {
            let _ = write_line(
                &mut writer,
                &error_line(&stream_name, &format!("line exceeds {max_line} bytes")),
            );
            return aborted;
        }
        Ok(_) => {}
        Err(e) => {
            let _ = write_line(
                &mut writer,
                &error_line(&stream_name, &format!("read failed: {e}")),
            );
            return aborted;
        }
    }
    let model = first.trim();
    let Some(monitor) = monitors.get(model) else {
        let _ = write_line(
            &mut writer,
            &error_line(&stream_name, &format!("unknown model {model:?}")),
        );
        return aborted;
    };
    serve_csv_stream(monitor, &stream_name, reader, &mut writer, options).unwrap_or(aborted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelSpec, Registry};
    use tracelearn_workloads::Workload;

    fn counter_registry() -> Registry {
        let specs = vec![ModelSpec::parse("counter=workload:counter:600").unwrap()];
        Registry::load(&specs).unwrap()
    }

    fn counter_csv(length: usize) -> String {
        let mut csv = Vec::new();
        Workload::Counter
            .write_csv(length, 0xDAC2020, &mut csv)
            .unwrap();
        String::from_utf8(csv).unwrap()
    }

    fn test_options(workers: usize) -> ServeOptions {
        ServeOptions {
            workers,
            calibration_events: 64,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn multiplexed_streams_are_served_and_summarised() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        input.push_str("open a counter\nopen b counter\n");
        input.push_str(&format!("data a {header}\ndata b {header}\n"));
        for record in &records {
            input.push_str(&format!("data a {record}\ndata b {record}\n"));
        }
        input.push_str("close a\n");
        // Stream b is left open: end of input must close it.

        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();

        assert_eq!(summary.streams, 2);
        assert_eq!(summary.events, 2 * records.len());
        assert_eq!(summary.deviations, 0);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.restarted, 0);
        assert_eq!(summary.admitted_latency.count() as usize, 2 * records.len());

        let output = String::from_utf8(output).unwrap();
        let verdicts = output.lines().filter(|l| l.starts_with("verdict ")).count();
        assert_eq!(verdicts, 2 * records.len());
        let summaries: Vec<&str> = output
            .lines()
            .filter(|l| l.starts_with("summary "))
            .collect();
        assert_eq!(summaries.len(), 2);
        for line in summaries {
            assert!(line.contains("deviations=0"), "unexpected summary: {line}");
        }
        assert!(!output.contains("error "), "unexpected error in: {output}");
    }

    #[test]
    fn verdicts_reach_the_reader_while_input_is_still_open() {
        let mut registry = counter_registry();
        let csv = counter_csv(100);
        let records = csv.lines().count() - 1;
        let last_verdict = format!("verdict s seq={records} ");
        // Socket pairs block on read as pipes do, and the output goes
        // through an 8 KiB `BufWriter` as the daemon's stdout does: the
        // reader sees only what the server flushed.
        let (mut input, server_input) = UnixStream::pair().unwrap();
        let (server_output, output) = UnixStream::pair().unwrap();
        output
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let delivered = thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve_commands(
                    &mut registry,
                    BufReader::new(server_input),
                    io::BufWriter::new(server_output),
                    &test_options(1),
                )
            });
            writeln!(input, "open s counter").unwrap();
            for row in csv.lines() {
                writeln!(input, "data s {row}").unwrap();
            }
            // Every record is in; the input stays open while the reader
            // waits up to 5 s for each next line.
            let mut reader = BufReader::new(&output);
            let mut line = String::new();
            let delivered = loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break false,
                    Ok(_) if line.starts_with(&last_verdict) => break true,
                    Ok(_) => {}
                }
            };
            drop(input);
            server.join().unwrap().unwrap();
            delivered
        });
        assert!(
            delivered,
            "`{last_verdict}` did not reach the reader before the input ended"
        );
    }

    #[test]
    fn per_stream_order_survives_many_workers() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let names = ["s0", "s1", "s2", "s3", "s4"];
        let mut input = String::new();
        for name in names {
            input.push_str(&format!("open {name} counter\ndata {name} {header}\n"));
        }
        for record in &records {
            for name in names {
                input.push_str(&format!("data {name} {record}\n"));
            }
        }
        for name in names {
            input.push_str(&format!("close {name}\n"));
        }

        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(4),
        )
        .unwrap();
        assert_eq!(summary.streams, names.len());
        assert_eq!(summary.deviations, 0);

        // Each stream's sequence numbers must appear in order even though
        // workers interleave their writes.
        let output = String::from_utf8(output).unwrap();
        for name in names {
            let prefix = format!("verdict {name} seq=");
            let mut expected = 1u64;
            for line in output.lines().filter(|l| l.starts_with(&prefix)) {
                let seq: u64 = line[prefix.len()..]
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                assert_eq!(seq, expected, "out-of-order verdict for {name}: {line}");
                expected += 1;
            }
            assert_eq!(expected, records.len() as u64 + 1);
        }
    }

    #[test]
    fn protocol_errors_are_reported_not_fatal() {
        let mut registry = counter_registry();
        let input = "open s nosuchmodel\n\
                     data ghost 1\n\
                     close ghost\n\
                     frobnicate s\n";
        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        assert_eq!(summary, ServeSummary::default());
        let output = String::from_utf8(output).unwrap();
        assert!(output.contains("error s unknown model"));
        assert!(output.contains("error ghost data before open"));
        assert!(output.contains("error ghost close before open"));
        assert!(output.contains("error - unknown verb"));
    }

    #[test]
    fn every_stream_degradation_path_is_counted_as_failed() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        // Path 1: closed before its CSV header ever arrived.
        input.push_str("open headerless counter\nclose headerless\n");
        // Path 2: a record that cannot decode kills that stream only.
        input.push_str(&format!("open garbled counter\ndata garbled {header}\n"));
        input.push_str("data garbled this,is,not,an,integer\n");
        // Data after the failure is swallowed — the stream is already dead.
        input.push_str(&format!("data garbled {}\n", records[0]));
        input.push_str("close garbled\n");
        // Path 3: a trace too short for end-of-stream checks fails at close.
        input.push_str(&format!("open stub counter\ndata stub {header}\n"));
        input.push_str(&format!("data stub {}\nclose stub\n", records[0]));
        // A healthy stream rides through all three failures untouched.
        input.push_str(&format!("open ok counter\ndata ok {header}\n"));
        for record in &records {
            input.push_str(&format!("data ok {record}\n"));
        }
        input.push_str("close ok\n");

        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        let output = String::from_utf8(output).unwrap();

        assert_eq!(summary.streams, 4, "{output}");
        assert_eq!(summary.failed, 3, "{output}");
        assert_eq!(summary.deviations, 0);
        assert!(
            output.contains("error headerless closed before the CSV header arrived"),
            "{output}"
        );
        assert!(output.contains("error garbled "), "{output}");
        assert!(output.contains("error stub "), "{output}");
        // Each dead stream reports exactly once, even `garbled` which saw
        // more data after its failure.
        for stream in ["headerless", "garbled", "stub"] {
            let errors = output
                .lines()
                .filter(|l| l.starts_with(&format!("error {stream} ")))
                .count();
            assert_eq!(errors, 1, "{stream} reported {errors} errors:\n{output}");
            assert!(
                !output.contains(&format!("summary {stream} ")),
                "failed stream {stream} also got a summary:\n{output}"
            );
        }
        assert!(output.contains("summary ok events=300"), "{output}");
    }

    #[test]
    fn opens_beyond_the_high_water_mark_are_shed_with_busy() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        input.push_str(&format!("open keep counter\ndata keep {header}\n"));
        // At the high-water mark of 1, this open must be refused.
        input.push_str("open extra counter\n");
        input.push_str("data extra 1\n");
        for record in &records {
            input.push_str(&format!("data keep {record}\n"));
        }
        // After `keep` closes, the slot frees up and a new open is admitted.
        input.push_str("close keep\n");
        input.push_str(&format!("open late counter\ndata late {header}\n"));
        for record in &records {
            input.push_str(&format!("data late {record}\n"));
        }
        input.push_str("close late\n");

        let options = ServeOptions {
            max_open_streams: 1,
            ..test_options(1)
        };
        let mut output = Vec::new();
        let summary =
            serve_commands(&mut registry, input.as_bytes(), &mut output, &options).unwrap();

        let output = String::from_utf8(output).unwrap();
        assert_eq!(summary.shed, 1, "{output}");
        assert_eq!(summary.streams, 2, "keep and late both served: {output}");
        assert_eq!(summary.failed, 0, "{output}");
        assert_eq!(summary.shed_latency.count(), 1);
        assert!(
            output.contains("busy extra open=1 limit=1"),
            "no busy line in: {output}"
        );
        // The shed stream was never opened, so its data is an error.
        assert!(output.contains("error extra data before open"));
        assert!(output.contains("summary keep "));
        assert!(output.contains("summary late "));
    }

    #[test]
    fn oversized_protocol_lines_are_rejected_in_sync() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        input.push_str(&format!("open s counter\ndata s {header}\n"));
        // A monster line must be rejected without desyncing the protocol.
        input.push_str(&format!("data s {}\n", "9".repeat(4096)));
        for record in &records {
            input.push_str(&format!("data s {record}\n"));
        }
        input.push_str("close s\n");

        let options = ServeOptions {
            max_line_bytes: 256,
            ..test_options(1)
        };
        let mut output = Vec::new();
        let summary =
            serve_commands(&mut registry, input.as_bytes(), &mut output, &options).unwrap();

        let output = String::from_utf8(output).unwrap();
        assert!(
            output.contains("error - line exceeds 256 bytes"),
            "no cap error in: {output}"
        );
        // The stream itself survives: the oversized record never reached it.
        assert_eq!(summary.streams, 1);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.events, records.len());
    }

    #[test]
    fn csv_stream_of_the_same_system_is_clean() {
        let registry = counter_registry();
        let monitors = registry.monitors();
        let monitor = &monitors["counter"];
        let csv = counter_csv(300);
        let mut output = Vec::new();
        let outcome = serve_csv_stream(
            monitor,
            "pipe",
            csv.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        assert!(!outcome.failed);
        assert_eq!(outcome.deviations, 0);
        assert_eq!(outcome.events, 300);
        let output = String::from_utf8(output).unwrap();
        assert!(output.contains("summary pipe events=300"));
        assert!(output.contains("deviations=0"));
    }

    #[test]
    fn csv_stream_of_a_deviating_system_is_flagged() {
        let registry = counter_registry();
        let monitors = registry.monitors();
        let monitor = &monitors["counter"];
        // Same signature as the counter, but the value teleports: the model
        // has no `x' = x - 30` behaviour.
        let header = counter_csv(10).lines().next().unwrap().to_string();
        let mut csv = header + "\n";
        let mut value = 1i64;
        for step in 0..200 {
            csv.push_str(&format!("{value}\n"));
            value += if step % 40 == 39 { -30 } else { 1 };
        }
        let mut output = Vec::new();
        let outcome = serve_csv_stream(
            monitor,
            "dev",
            csv.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        assert!(!outcome.failed);
        assert!(outcome.deviations > 0, "expected deviations: {outcome:?}");
        let output = String::from_utf8(output).unwrap();
        assert!(
            output.contains("status=deviation"),
            "no deviation in: {output}"
        );
    }

    #[test]
    fn socket_connections_serve_full_streams() {
        let registry = counter_registry();
        let monitors = registry.monitors();
        let path =
            std::env::temp_dir().join(format!("tracelearn-serve-test-{}.sock", std::process::id()));
        let options = test_options(1);
        let csv = counter_csv(300);

        let summary = thread::scope(|scope| {
            let server = scope.spawn(|| serve_socket(&path, &monitors, &options, Some(1)));
            // Wait for the listener to bind.
            let mut connection = None;
            for _ in 0..200 {
                match UnixStream::connect(&path) {
                    Ok(c) => {
                        connection = Some(c);
                        break;
                    }
                    Err(_) => thread::sleep(std::time::Duration::from_millis(5)),
                }
            }
            let mut connection = connection
                .unwrap_or_else(|| panic!("server never bound its socket at {}", path.display()));
            connection.write_all(b"counter\n").unwrap_or_else(|e| {
                panic!("write of model line to {} failed: {e}", path.display())
            });
            connection
                .write_all(csv.as_bytes())
                .unwrap_or_else(|e| panic!("write of CSV body to {} failed: {e}", path.display()));
            connection
                .shutdown(std::net::Shutdown::Write)
                .unwrap_or_else(|e| panic!("write-shutdown of {} failed: {e}", path.display()));
            let mut response = String::new();
            use std::io::Read;
            connection
                .read_to_string(&mut response)
                .unwrap_or_else(|e| panic!("read of response from {} failed: {e}", path.display()));
            assert!(response.contains("summary conn0 events=300"), "{response}");
            assert!(response.contains("deviations=0"), "{response}");
            server.join().expect("server panicked").unwrap()
        });
        let _ = std::fs::remove_file(&path);
        assert_eq!(summary.streams, 1);
        assert_eq!(summary.events, 300);
        assert_eq!(summary.deviations, 0);
    }

    #[test]
    fn slow_socket_clients_hit_the_read_deadline() {
        let registry = counter_registry();
        let monitors = registry.monitors();
        let path =
            std::env::temp_dir().join(format!("tracelearn-serve-slow-{}.sock", std::process::id()));
        let options = ServeOptions {
            read_timeout: Some(Duration::from_millis(50)),
            ..test_options(1)
        };

        let summary = thread::scope(|scope| {
            let server = scope.spawn(|| serve_socket(&path, &monitors, &options, Some(1)));
            let mut connection = None;
            for _ in 0..200 {
                match UnixStream::connect(&path) {
                    Ok(c) => {
                        connection = Some(c);
                        break;
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
            let mut connection = connection
                .unwrap_or_else(|| panic!("server never bound its socket at {}", path.display()));
            // Send the model line, then stall without data and without EOF.
            connection.write_all(b"counter\n").unwrap_or_else(|e| {
                panic!("write of model line to {} failed: {e}", path.display())
            });
            let mut response = String::new();
            use std::io::Read;
            connection
                .read_to_string(&mut response)
                .unwrap_or_else(|e| panic!("read of response from {} failed: {e}", path.display()));
            assert!(
                response.contains("error conn0 "),
                "expected a deadline error, got: {response}"
            );
            server.join().expect("server panicked").unwrap()
        });
        let _ = std::fs::remove_file(&path);
        assert_eq!(summary.streams, 1);
        assert_eq!(summary.failed, 1);
    }

    fn stream_script(names: &[&str], csv: &str) -> String {
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or_default();
        let records: Vec<&str> = lines.collect();
        let mut input = String::new();
        for name in names {
            input.push_str(&format!("open {name} counter\ndata {name} {header}\n"));
        }
        for record in &records {
            for name in names {
                input.push_str(&format!("data {name} {record}\n"));
            }
        }
        for name in names {
            input.push_str(&format!("close {name}\n"));
        }
        input
    }

    #[test]
    fn tenant_quotas_shed_with_a_tenant_scoped_busy_line() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        // Tenant `acme` fills its quota of 2; the third open is refused.
        input.push_str("open acme/s1 counter\nopen acme/s2 counter\n");
        input.push_str("open acme/s3 counter\n");
        // A different tenant is unaffected by acme's quota.
        input.push_str("open beta/s1 counter\n");
        for name in ["acme/s1", "acme/s2", "beta/s1"] {
            input.push_str(&format!("data {name} {header}\n"));
        }
        for record in &records {
            for name in ["acme/s1", "acme/s2", "beta/s1"] {
                input.push_str(&format!("data {name} {record}\n"));
            }
        }
        // After a slot frees, the tenant can open again.
        input.push_str("close acme/s1\nclose acme/s2\nclose beta/s1\n");
        input.push_str(&format!("open acme/s4 counter\ndata acme/s4 {header}\n"));
        for record in &records {
            input.push_str(&format!("data acme/s4 {record}\n"));
        }
        input.push_str("close acme/s4\n");

        let options = ServeOptions {
            max_streams_per_tenant: 2,
            ..test_options(1)
        };
        let mut output = Vec::new();
        let summary =
            serve_commands(&mut registry, input.as_bytes(), &mut output, &options).unwrap();
        let output = String::from_utf8(output).unwrap();

        assert_eq!(summary.shed, 1, "{output}");
        assert_eq!(summary.tenant_shed.get("acme"), Some(&1), "{output}");
        assert_eq!(summary.streams, 4, "{output}");
        assert_eq!(summary.failed, 0, "{output}");
        assert!(
            output.contains("busy acme/s3 tenant=acme open=2 limit=2"),
            "no tenant busy line in: {output}"
        );
        assert!(output.contains("summary acme/s4 "), "{output}");
    }

    #[test]
    fn shutdown_drains_open_streams_and_refuses_new_ones() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        input.push_str(&format!("open s counter\ndata s {header}\n"));
        for record in &records {
            input.push_str(&format!("data s {record}\n"));
        }
        // No close: shutdown must drain it to a summary. Everything after
        // the shutdown line is never read.
        input.push_str("shutdown\n");
        input.push_str("open late counter\n");

        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        let output = String::from_utf8(output).unwrap();

        assert_eq!(summary.streams, 1, "{output}");
        assert_eq!(summary.failed, 0, "{output}");
        assert!(output.contains("summary s events=300"), "{output}");
        // `open late` came after shutdown, so it was never even parsed.
        assert!(!output.contains("late"), "{output}");
    }

    #[test]
    fn reload_swaps_versions_without_touching_in_flight_streams() {
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();

        let mut input = String::new();
        input.push_str(&format!("open before counter\ndata before {header}\n"));
        for record in &records[..100] {
            input.push_str(&format!("data before {record}\n"));
        }
        // Hot-swap mid-stream: `before` stays pinned to version 1.
        input.push_str("reload counter workload:counter:900\n");
        input.push_str(&format!("open after counter\ndata after {header}\n"));
        for (index, record) in records.iter().enumerate() {
            if index >= 100 {
                input.push_str(&format!("data before {record}\n"));
            }
            input.push_str(&format!("data after {record}\n"));
        }
        input.push_str("close before\nclose after\n");

        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        let output = String::from_utf8(output).unwrap();

        assert_eq!(summary.streams, 2, "{output}");
        assert_eq!(summary.failed, 0, "{output}");
        assert_eq!(summary.events, 2 * records.len(), "{output}");
        assert!(
            output.contains("info counter reloaded version=2"),
            "{output}"
        );
        // Both streams reach clean summaries: none dropped, none
        // misversioned mid-flight.
        assert!(output.contains("summary before events=300"), "{output}");
        assert!(output.contains("summary after events=300"), "{output}");
        // The old version retires once its last pinned stream closed.
        assert!(
            output.contains("info counter version 1 retired"),
            "{output}"
        );
    }

    /// Builds the stream snapshot a crashed daemon would have left behind
    /// after serving `log` (header first) on model version 1.
    fn crashed_snapshot(
        registry: &Registry,
        stream: &str,
        log: &[String],
        calibration_events: usize,
    ) -> tracelearn_persist::StreamSnapshot {
        let (monitor, version) = registry.resolve("counter").unwrap();
        let mut decoder = tracelearn_trace::CsvRecordDecoder::from_header(&log[0]).unwrap();
        let mut session = monitor
            .session_with_calibration(decoder.signature(), calibration_events)
            .unwrap();
        for (index, payload) in log.iter().enumerate().skip(1) {
            let observation = decoder.decode(payload, index + 1).unwrap();
            session.push_event(&observation, decoder.symbols()).unwrap();
        }
        tracelearn_persist::StreamSnapshot {
            stream: stream.to_string(),
            model: "counter".to_string(),
            version,
            seq: log.len() as u64,
            log: log.to_vec(),
            checkpoint: Some(session.checkpoint()),
        }
    }

    #[test]
    fn periodic_checkpoints_are_written_and_cleaned_up_on_close() {
        let dir = std::env::temp_dir().join(format!(
            "tracelearn-engine-ckpt-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions {
            state_dir: Some(dir.clone()),
            checkpoint_every: 50,
            ..test_options(1)
        };
        let mut output = Vec::new();
        let summary = serve_commands(
            &mut counter_registry(),
            stream_script(&["s"], &counter_csv(300)).as_bytes(),
            &mut output,
            &options,
        )
        .unwrap();
        assert!(summary.checkpoints > 0, "no checkpoint was written");
        assert_eq!(summary.failed, 0);
        // The stream closed cleanly, so nothing survives for recovery.
        let leftovers = crate::state::stream_snapshots(&dir).unwrap();
        assert!(leftovers.is_empty(), "stale snapshots: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_streams_recover_across_runs() {
        let dir = std::env::temp_dir().join(format!(
            "tracelearn-engine-recover-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();
        let options = ServeOptions {
            state_dir: Some(dir.clone()),
            checkpoint_every: 50,
            ..test_options(1)
        };

        // Plant the snapshot a daemon killed after 150 records would have
        // left behind (a clean exit would have closed the stream instead).
        let mut log: Vec<String> = vec![header.to_string()];
        log.extend(records[..150].iter().map(|r| r.to_string()));
        let registry = counter_registry();
        let snapshot = crashed_snapshot(&registry, "s", &log, options.calibration_events);
        tracelearn_persist::save_stream(&crate::state::stream_path(&dir, "s"), &snapshot).unwrap();

        // The restart recovers the stream and serves the rest of it.
        let mut input = String::new();
        for record in &records[150..] {
            input.push_str(&format!("data s {record}\n"));
        }
        input.push_str("close s\n");
        let mut output = Vec::new();
        let summary = serve_commands(
            &mut counter_registry(),
            input.as_bytes(),
            &mut output,
            &options,
        )
        .unwrap();
        let output = String::from_utf8(output).unwrap();

        assert_eq!(summary.recovered, 1, "{output}");
        assert_eq!(summary.reset, 0, "{output}");
        assert_eq!(summary.failed, 0, "{output}");
        assert!(
            output.contains("recovered s seq=151 events=150"),
            "{output}"
        );
        // The recovered stream continues its verdict numbering where the
        // crashed run left off, and reaches a full-stream summary.
        assert!(output.contains("verdict s seq=151 "), "{output}");
        assert!(!output.contains("verdict s seq=150 "), "{output}");
        assert!(output.contains("summary s events=300"), "{output}");
        // A clean close removed the snapshot: a further run recovers nothing.
        let mut third_output = Vec::new();
        let third = serve_commands(
            &mut counter_registry(),
            b"" as &[u8],
            &mut third_output,
            &options,
        )
        .unwrap();
        assert_eq!(third.recovered, 0);
        assert_eq!(third.reset, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrecoverable_snapshots_are_reset_not_resumed() {
        let dir = std::env::temp_dir().join(format!(
            "tracelearn-engine-reset-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = counter_csv(300);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let records: Vec<&str> = lines.collect();
        let options = ServeOptions {
            state_dir: Some(dir.clone()),
            ..test_options(1)
        };

        let mut log: Vec<String> = vec![header.to_string()];
        log.extend(records[..50].iter().map(|r| r.to_string()));
        let registry = counter_registry();

        // Snapshot 1: names a model the restarted daemon no longer serves.
        let mut foreign = crashed_snapshot(&registry, "gone", &log, options.calibration_events);
        foreign.model = "nosuchmodel".to_string();
        tracelearn_persist::save_stream(&crate::state::stream_path(&dir, "gone"), &foreign)
            .unwrap();
        // Snapshot 2: corrupted on disk (a flipped byte past the header).
        let good = crashed_snapshot(&registry, "torn", &log, options.calibration_events);
        tracelearn_persist::save_stream(&crate::state::stream_path(&dir, "torn"), &good).unwrap();
        let torn_path = crate::state::stream_path(&dir, "torn");
        let mut bytes = std::fs::read(&torn_path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        std::fs::write(&torn_path, bytes).unwrap();

        let mut output = Vec::new();
        let summary =
            serve_commands(&mut counter_registry(), b"" as &[u8], &mut output, &options).unwrap();
        let output = String::from_utf8(output).unwrap();

        assert_eq!(summary.recovered, 0, "{output}");
        assert_eq!(summary.reset, 2, "{output}");
        assert!(output.contains("reset gone "), "{output}");
        assert!(output.contains("reset torn "), "{output}");
        // Both snapshots were discarded: the next start is silent.
        let leftovers = crate::state::stream_snapshots(&dir).unwrap();
        assert!(leftovers.is_empty(), "stale snapshots: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_opens_are_refused_during_shutdown() {
        // `stream_script` is exercised by other suites; here it seeds a
        // normal run so the drain path has something to close.
        let mut registry = counter_registry();
        let csv = counter_csv(300);
        let mut input = stream_script(&["d1"], &csv);
        input.push_str("shutdown\n");
        let mut output = Vec::new();
        let summary = serve_commands(
            &mut registry,
            input.as_bytes(),
            &mut output,
            &test_options(1),
        )
        .unwrap();
        assert_eq!(summary.streams, 1);
        assert_eq!(summary.failed, 0);
        assert!(!summary.aborted);
    }
}
