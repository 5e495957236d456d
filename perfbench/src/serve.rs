//! The serving workloads, `serve-burst` and `serve-paced`.
//!
//! Both drive [`serve_commands`] in process with one worker, so the
//! dispatcher (the calling thread) plus the worker match a 2-core host. The
//! served model is learned by [`Registry::load`] from a training CSV this
//! module writes and names through a `csv:` model spec. The script — `open`,
//! one `data` header and rows per stream dealt round-robin, `close` — sits
//! in memory, and a checking sink compares every stream's verdict lines with
//! a single-threaded replay of the same script.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tracelearn_core::{Monitor, DEFAULT_CALIBRATION_EVENTS};
use tracelearn_serve::{
    parse_command, serve_commands, verdict_line, Command, ModelSpec, Registry, ServeOptions,
};
use tracelearn_trace::CsvRecordDecoder;
use tracelearn_workloads::Workload as System;

use crate::alloc::allocations;
use crate::cli::{Args, Workload};
use crate::inputs::{csv_of, data_rows, derive_seed, header};
use crate::report::{metric, Metric, Outcome};
use crate::schedule::{Lateness, Schedule};
use crate::stall::{StallDetector, STALL_THRESHOLD_NS};
use crate::stats::{median, percentile_us, saturating_ns};

/// Counter streams of `serve-burst`.
pub const BURST_STREAMS: usize = 4;
/// Rows per `serve-burst` stream and pass.
pub const BURST_ROWS: usize = 65_536;
/// Rows of the counter model's training trace.
pub const BURST_TRAINING_ROWS: usize = 2_000;
/// rtlinux streams of `serve-paced`.
pub const PACED_STREAMS: usize = 16;
/// Records per second `serve-paced` releases.
pub const PACED_RATE: u64 = 100_000;
/// Rows per `serve-paced` stream released before the paced phase, closed
/// loop: every session calibrates (after 4096 events) and warms up here.
pub const WARM_ROWS: usize = 5_000;
/// Rows per stream of the shortened `serve-paced` script the memory probe
/// serves.
pub const PROBE_PACED_ROWS: usize = 2_000;
/// Input lines per clock stamp of the closed-loop reader.
pub const STAMP_EVERY: usize = 61;
/// Registry loads per run, after one discarded warm-up load.
pub const SETUP_LOADS: usize = 41;

const MODEL: &str = "m";
/// Lead between the end of the warm-up and the first paced release.
const PACED_LEAD_NS: u64 = 200_000;
/// Longest wait for the warm-up verdicts before the paced phase starts.
const WARM_TIMEOUT: Duration = Duration::from_secs(20);

/// FNV-1a over one verdict line, chained per stream.
fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash.wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn stream_name(index: usize) -> String {
    format!("s{index}")
}

fn stream_index(name: &[u8]) -> Option<usize> {
    std::str::from_utf8(name.strip_prefix(b"s")?)
        .ok()?
        .parse()
        .ok()
}

/// A serving script held in memory.
#[derive(Debug)]
pub struct Script {
    text: Vec<u8>,
    /// Byte offset of every line start, plus the text length.
    line_starts: Vec<usize>,
    /// Per line: the data record's stream and verdict sequence number.
    records: Vec<Option<(usize, u64)>>,
    streams: usize,
    rows: usize,
    /// Rows per stream before the paced phase (all rows when unpaced).
    warm_rows: usize,
    /// First and one-past-last line of the paced phase.
    paced: (usize, usize),
}

impl Script {
    /// Deals each stream's rows round-robin: `open`s, headers, rows,
    /// `close`s. Rows from `warm_rows` on form the paced phase.
    pub fn build(streams: &[Vec<u8>], rows: usize, warm_rows: usize) -> Script {
        let mut text = Vec::new();
        let mut records = Vec::new();
        let mut push = |line: String, record: Option<(usize, u64)>| {
            text.extend_from_slice(line.as_bytes());
            text.push(b'\n');
            records.push(record);
        };
        for j in 0..streams.len() {
            push(format!("open {} {MODEL}", stream_name(j)), None);
        }
        for (j, csv) in streams.iter().enumerate() {
            push(format!("data {} {}", stream_name(j), header(csv)), None);
        }
        let columns: Vec<Vec<&str>> = streams
            .iter()
            .map(|csv| data_rows(csv).take(rows).collect())
            .collect();
        let first_row_line = 2 * streams.len();
        for k in 0..rows {
            for (j, column) in columns.iter().enumerate() {
                push(
                    format!("data {} {}", stream_name(j), column[k]),
                    Some((j, k as u64 + 1)),
                );
            }
        }
        for j in 0..streams.len() {
            push(format!("close {}", stream_name(j)), None);
        }
        let mut line_starts = vec![0];
        line_starts.extend(
            text.iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        let warm_rows = warm_rows.min(rows);
        let paced = (
            first_row_line + warm_rows * streams.len(),
            first_row_line + rows * streams.len(),
        );
        Script {
            text,
            line_starts,
            records,
            streams: streams.len(),
            rows,
            warm_rows,
            paced,
        }
    }

    fn lines(&self) -> usize {
        self.records.len()
    }

    fn line(&self, index: usize) -> &[u8] {
        &self.text[self.line_starts[index]..self.line_starts[index + 1] - 1]
    }

    /// Records served (verdicts expected).
    pub fn events(&self) -> u64 {
        (self.streams * self.rows) as u64
    }

    fn paced_events(&self) -> u64 {
        (self.paced.1 - self.paced.0) as u64
    }
}

/// What the single-threaded replay expects of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    verdicts: u64,
    hash: u64,
}

/// Time and allocations per serving layer, from the single-threaded replay.
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    events: u64,
    parse_ns: u64,
    parse_allocs: u64,
    decode_ns: u64,
    decode_allocs: u64,
    push_ns: u64,
    push_allocs: u64,
    emit_ns: u64,
    emit_allocs: u64,
    calibrate_ns: u64,
    calibrations: u64,
    windows: u64,
    novel: u64,
    /// Cost of one empty clock interval, taken off every timed call.
    clock_ns: u64,
}

impl ServeLayers {
    fn per_event(&self, total_ns: u64) -> f64 {
        total_ns as f64 / self.events.max(1) as f64
    }

    fn parse(&self) -> f64 {
        self.per_event(self.parse_ns)
    }

    fn decode(&self) -> f64 {
        self.per_event(self.decode_ns)
    }

    fn push(&self) -> f64 {
        self.per_event(self.push_ns)
    }

    fn emit(&self) -> f64 {
        self.per_event(self.emit_ns)
    }

    /// Per-event time of the four layers, calibration excluded.
    fn four_layers_ns(&self) -> f64 {
        self.parse() + self.decode() + self.push() + self.emit()
    }

    /// Per-event time of the four layers with calibration spread over all
    /// events.
    fn all_layers_ns(&self) -> f64 {
        self.four_layers_ns() + self.calibrate_ns as f64 / self.events.max(1) as f64
    }
}

fn clock_overhead_ns() -> u64 {
    let mut samples: Vec<f64> = (0..1001)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples) as u64
}

#[derive(Default)]
struct ReplayStream {
    decoder: Option<CsvRecordDecoder>,
    session: Option<tracelearn_core::MonitorSession>,
    seq: u64,
    hash: u64,
}

/// Serves `script` through the four layers on one thread — `parse_command`,
/// `CsvRecordDecoder::decode`, `MonitorSession::push_event`, `verdict_line`
/// plus a write — timing and counting allocations around each call.
///
/// # Errors
///
/// Describes the first command or record the replay could not serve.
pub fn replay(script: &Script, monitor: &Monitor) -> Result<(Vec<Expected>, ServeLayers), String> {
    let mut layers = ServeLayers {
        clock_ns: clock_overhead_ns(),
        ..ServeLayers::default()
    };
    let calibration_point = DEFAULT_CALIBRATION_EVENTS.max(monitor.config().window);
    let mut streams: Vec<ReplayStream> = (0..script.streams)
        .map(|_| ReplayStream::default())
        .collect();
    let mut out: Vec<u8> = Vec::with_capacity(256);
    let mut expected = vec![
        Expected {
            verdicts: 0,
            hash: FNV_OFFSET
        };
        script.streams
    ];
    for index in 0..script.lines() {
        let line = std::str::from_utf8(script.line(index)).map_err(|e| e.to_string())?;
        let (start, allocs) = (Instant::now(), allocations());
        let command = parse_command(line);
        layers.parse_ns += start.elapsed().as_nanos() as u64;
        layers.parse_allocs += allocations() - allocs;
        let stream_of = |name: &str| {
            stream_index(name.as_bytes())
                .filter(|&j| j < script.streams)
                .ok_or_else(|| format!("unknown stream {name:?}"))
        };
        match command.map_err(|e| format!("line {index}: {e}"))? {
            Command::Open { stream, .. } => {
                streams[stream_of(&stream)?] = ReplayStream {
                    hash: FNV_OFFSET,
                    ..ReplayStream::default()
                };
            }
            Command::Data { stream, payload } => {
                let j = stream_of(&stream)?;
                let state = &mut streams[j];
                let (Some(decoder), Some(session)) = (&mut state.decoder, &mut state.session)
                else {
                    let decoder =
                        CsvRecordDecoder::from_header(&payload).map_err(|e| e.to_string())?;
                    let session = monitor
                        .session_with_calibration(decoder.signature(), DEFAULT_CALIBRATION_EVENTS)
                        .map_err(|e| e.to_string())?;
                    state.decoder = Some(decoder);
                    state.session = Some(session);
                    continue;
                };
                let (start, allocs) = (Instant::now(), allocations());
                let observation = decoder
                    .decode(&payload, state.seq as usize + 2)
                    .map_err(|e| e.to_string())?;
                layers.decode_ns += start.elapsed().as_nanos() as u64;
                layers.decode_allocs += allocations() - allocs;
                let calibrating = session.events() + 1 == calibration_point;
                let (start, allocs) = (Instant::now(), allocations());
                let verdict = session
                    .push_event(&observation, decoder.symbols())
                    .map_err(|e| e.to_string())?;
                let elapsed = start.elapsed().as_nanos() as u64;
                if calibrating {
                    layers.calibrate_ns += elapsed;
                    layers.calibrations += 1;
                } else {
                    layers.push_ns += elapsed;
                    layers.push_allocs += allocations() - allocs;
                }
                state.seq += 1;
                let (start, allocs) = (Instant::now(), allocations());
                let text = verdict_line(&stream, state.seq, &verdict);
                out.clear();
                out.extend_from_slice(text.as_bytes());
                out.push(b'\n');
                layers.emit_ns += start.elapsed().as_nanos() as u64;
                layers.emit_allocs += allocations() - allocs;
                state.hash = fnv(state.hash, text.as_bytes());
                layers.events += 1;
                layers.windows += verdict.windows_closed as u64;
                layers.novel += verdict.novel_windows as u64;
            }
            Command::Close { stream } => {
                let j = stream_of(&stream)?;
                let state = std::mem::take(&mut streams[j]);
                let (Some(decoder), Some(session)) = (state.decoder, state.session) else {
                    return Err(format!("{stream} closed before its header"));
                };
                session
                    .finish(decoder.symbols())
                    .map_err(|e| e.to_string())?;
                expected[j] = Expected {
                    verdicts: state.seq,
                    hash: state.hash,
                };
            }
            other => return Err(format!("unexpected command {other:?}")),
        }
    }
    // Every timed call also paid for one clock read.
    let clock = layers.clock_ns;
    let pushes = layers.events - layers.calibrations;
    layers.parse_ns = layers
        .parse_ns
        .saturating_sub(script.lines() as u64 * clock);
    layers.decode_ns = layers.decode_ns.saturating_sub(layers.events * clock);
    layers.push_ns = layers.push_ns.saturating_sub(pushes * clock);
    layers.emit_ns = layers.emit_ns.saturating_sub(layers.events * clock);
    Ok((expected, layers))
}

/// State shared by the benchmark's reader (dispatcher thread) and sink
/// (worker thread) during one `serve_commands` pass.
#[derive(Debug)]
pub struct Shared {
    base: Instant,
    /// Verdict lines the sink has seen; counted in paced passes only, where
    /// the reader waits for the warm-up verdicts.
    verdicts: AtomicU64,
    /// Start of the paced phase, in nanoseconds after `base`.
    t0_ns: AtomicU64,
    /// Read stamps, one per segment of `STAMP_EVERY` lines.
    stamps: Vec<AtomicU64>,
}

impl Shared {
    fn new(segments: usize) -> Shared {
        Shared {
            base: Instant::now(),
            verdicts: AtomicU64::new(0),
            t0_ns: AtomicU64::new(0),
            stamps: (0..segments).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// Closed-loop reader: hands the dispatcher the script as fast as it pulls,
/// stamping the clock once per segment of [`STAMP_EVERY`] lines — never per
/// line, which would slow the dispatcher and change what is measured.
pub struct SampledReader<'a> {
    text: &'a [u8],
    bounds: Vec<usize>,
    shared: &'a Shared,
    pos: usize,
    end: usize,
    next: usize,
}

fn segment_bounds(script: &Script) -> Vec<usize> {
    let mut bounds: Vec<usize> = script
        .line_starts
        .iter()
        .step_by(STAMP_EVERY)
        .copied()
        .collect();
    if bounds.last() != Some(&script.text.len()) {
        bounds.push(script.text.len());
    }
    bounds
}

impl<'a> SampledReader<'a> {
    fn new(script: &'a Script, shared: &'a Shared) -> SampledReader<'a> {
        SampledReader {
            text: &script.text,
            bounds: segment_bounds(script),
            shared,
            pos: 0,
            end: 0,
            next: 0,
        }
    }
}

impl Read for SampledReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for SampledReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end && self.next + 1 < self.bounds.len() {
            self.shared.stamps[self.next].store(self.shared.now_ns(), Ordering::Relaxed);
            self.end = self.bounds[self.next + 1];
            self.next += 1;
        }
        Ok(&self.text[self.pos..self.end])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.end);
    }
}

/// Open-loop reader: releases warm-up lines at once, waits until the sink
/// has seen their verdicts, then releases each paced record at its due
/// time, spinning, whatever the server is doing.
pub struct PacedReader<'a> {
    script: &'a Script,
    shared: &'a Shared,
    schedule: Schedule,
    lateness: Lateness,
    next_line: usize,
    pos: usize,
    end: usize,
}

impl<'a> PacedReader<'a> {
    fn new(script: &'a Script, shared: &'a Shared) -> PacedReader<'a> {
        PacedReader {
            script,
            shared,
            schedule: Schedule::per_second(PACED_RATE),
            lateness: Lateness::with_capacity(script.paced_events() as usize),
            next_line: 0,
            pos: 0,
            end: 0,
        }
    }

    fn release(&mut self, line: usize) {
        let (first, last) = self.script.paced;
        if !(first..last).contains(&line) {
            return;
        }
        let shared = self.shared;
        if line == first {
            let warm = (self.script.streams * self.script.warm_rows) as u64;
            let waited = Instant::now();
            while shared.verdicts.load(Ordering::Acquire) < warm && waited.elapsed() < WARM_TIMEOUT
            {
                std::hint::spin_loop();
            }
            shared
                .t0_ns
                .store(shared.now_ns() + PACED_LEAD_NS, Ordering::Release);
        }
        let due =
            shared.t0_ns.load(Ordering::Relaxed) + self.schedule.due_ns((line - first) as u64);
        let mut now = shared.now_ns();
        while now < due {
            std::hint::spin_loop();
            now = shared.now_ns();
        }
        self.lateness.record(due, now);
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end && self.next_line < self.script.lines() {
            let line = self.next_line;
            self.release(line);
            self.pos = self.script.line_starts[line];
            self.end = self.script.line_starts[line + 1];
            self.next_line += 1;
        }
        Ok(&self.script.text[self.pos..self.end])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.end);
    }
}

/// How the sink times verdicts.
enum Timing<'a> {
    /// Verdict latency of stamped lines: `samples[stream]` lists
    /// `(verdict seq, stamp segment)` in order.
    Sampled(&'a [Vec<(u64, usize)>]),
    /// Verdict latency of every paced record, from its due time.
    Paced {
        warm_rows: u64,
        streams: u64,
        schedule: Schedule,
    },
    /// No timing (the memory probe).
    None,
}

#[derive(Debug, Clone, Default)]
struct SinkStream {
    verdicts: u64,
    hash: u64,
    summary: Option<u64>,
    failed: bool,
    next_sample: usize,
}

/// The output side of a pass: checks every line against the replay and
/// times the verdicts the pass samples. The worker thread writes it while
/// the dispatcher reads input, so it is boxed and cache-line aligned: the
/// benchmark's own state must not share a cache line with the dispatcher's.
#[repr(align(128))]
pub struct Sink<'a> {
    shared: &'a Shared,
    timing: Timing<'a>,
    partial: Vec<u8>,
    streams: Vec<SinkStream>,
    unexpected: u64,
    latencies: Vec<u32>,
    last_verdict_ns: u64,
}

impl<'a> Sink<'a> {
    fn new(
        shared: &'a Shared,
        timing: Timing<'a>,
        streams: usize,
        samples: usize,
    ) -> Box<Sink<'a>> {
        Box::new(Sink {
            shared,
            timing,
            partial: Vec::with_capacity(4096),
            streams: vec![
                SinkStream {
                    hash: FNV_OFFSET,
                    ..SinkStream::default()
                };
                streams
            ],
            unexpected: 0,
            latencies: Vec::with_capacity(samples),
            last_verdict_ns: 0,
        })
    }

    fn line(&mut self, line: &[u8]) {
        let mut parts = line.splitn(3, |&b| b == b' ');
        let kind = parts.next().unwrap_or_default();
        let Some(j) = parts
            .next()
            .and_then(stream_index)
            .filter(|&j| j < self.streams.len())
        else {
            self.unexpected += 1;
            return;
        };
        let stream = &mut self.streams[j];
        match kind {
            b"verdict" => {
                stream.verdicts += 1;
                stream.hash = fnv(stream.hash, line);
                self.time_verdict(j);
            }
            b"summary" => {
                stream.summary = std::str::from_utf8(line)
                    .ok()
                    .and_then(|text| text.split(' ').find_map(|f| f.strip_prefix("events=")))
                    .and_then(|events| events.parse().ok());
            }
            b"info" => {}
            _ => stream.failed = true,
        }
    }

    fn time_verdict(&mut self, j: usize) {
        let stream = &mut self.streams[j];
        match &self.timing {
            Timing::Sampled(samples) => {
                if let Some(&(seq, segment)) = samples[j].get(stream.next_sample) {
                    if seq == stream.verdicts {
                        stream.next_sample += 1;
                        let stamp = self.shared.stamps[segment].load(Ordering::Relaxed);
                        self.latencies
                            .push(saturating_ns(self.shared.now_ns().saturating_sub(stamp)));
                    }
                }
            }
            Timing::Paced {
                warm_rows,
                streams,
                schedule,
            } => {
                self.shared.verdicts.fetch_add(1, Ordering::Release);
                if stream.verdicts > *warm_rows {
                    let now = self.shared.now_ns();
                    let index = (stream.verdicts - warm_rows - 1) * streams + j as u64;
                    let due = self.shared.t0_ns.load(Ordering::Acquire) + schedule.due_ns(index);
                    self.latencies.push(saturating_ns(now.saturating_sub(due)));
                    self.last_verdict_ns = now;
                }
            }
            Timing::None => {}
        }
    }

    /// Records of streams whose output differs from the replay, and whether
    /// any line could not be attributed to a stream.
    fn failed_records(&self, expected: &[Expected], rows: usize) -> (u64, bool) {
        let mut failed = 0;
        for (j, (got, want)) in self.streams.iter().zip(expected).enumerate() {
            let ok = !got.failed
                && got.verdicts == want.verdicts
                && got.hash == want.hash
                && got.summary == Some(want.verdicts);
            if !ok {
                eprintln!(
                    "perfbench: stream {} differs from the replay: {} verdicts (want {}), \
                     summary {:?}, error/busy {}",
                    stream_name(j),
                    got.verdicts,
                    want.verdicts,
                    got.summary,
                    got.failed
                );
                failed += rows as u64;
            }
        }
        (failed, self.unexpected > 0)
    }
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while let Some(newline) = rest.iter().position(|&b| b == b'\n') {
            if self.partial.is_empty() {
                self.line(&rest[..newline]);
            } else {
                self.partial.extend_from_slice(&rest[..newline]);
                let line = std::mem::take(&mut self.partial);
                self.line(&line);
                self.partial = line;
                self.partial.clear();
            }
            rest = &rest[newline + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A loaded registry, the script and what the replay expects of it.
pub struct Setup {
    registry: Registry,
    /// Median warm `Registry::load` time.
    pub setup_s: f64,
    script: Script,
    expected: Vec<Expected>,
    /// Replay layer figures.
    pub layers: ServeLayers,
}

fn training_csv(args: &Args) -> Vec<u8> {
    match args.workload {
        Workload::ServeBurst => csv_of(System::Counter, BURST_TRAINING_ROWS, 0),
        _ => csv_of(
            System::LinuxKernel,
            System::LinuxKernel.paper_trace_length(),
            derive_seed(args.seed, 0),
        ),
    }
}

/// The streams of the workload. Counter traces do not depend on a seed, so
/// each burst stream starts at a seed-chosen point of the counter's ramp.
fn stream_csvs(args: &Args, rows: usize) -> Vec<Vec<u8>> {
    match args.workload {
        Workload::ServeBurst => (0..BURST_STREAMS as u64)
            .map(|j| {
                let offset = (derive_seed(args.seed, j + 1) % 256) as usize;
                let csv = csv_of(System::Counter, rows + offset, 0);
                let mut shifted = format!("{}\n", header(&csv)).into_bytes();
                for row in data_rows(&csv).skip(offset) {
                    shifted.extend_from_slice(row.as_bytes());
                    shifted.push(b'\n');
                }
                shifted
            })
            .collect(),
        _ => (0..PACED_STREAMS as u64)
            .map(|j| csv_of(System::LinuxKernel, rows, derive_seed(args.seed, j + 1)))
            .collect(),
    }
}

fn paced_rows(args: &Args) -> usize {
    let paced_seconds = args.seconds.saturating_sub(1).max(1);
    (PACED_RATE * paced_seconds) as usize / PACED_STREAMS
}

fn load_registry(args: &Args, path: &Path, loads: usize) -> Result<(Registry, f64), String> {
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    std::fs::write(path, training_csv(args)).map_err(|e| e.to_string())?;
    let spec =
        ModelSpec::parse(&format!("{MODEL}=csv:{}", path.display())).map_err(|e| e.to_string())?;
    let specs = [spec];
    let mut registry = Registry::load(&specs).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(loads);
    for _ in 0..loads {
        let start = Instant::now();
        registry = Registry::load(&specs).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((registry, median(&mut times)))
}

impl Setup {
    /// Loads the registry (timed), builds the script and replays it. For the
    /// memory probe it loads once, untimed, builds the shorter paced script
    /// and skips the replay.
    ///
    /// # Errors
    ///
    /// Describes the first step that failed.
    pub fn new(args: &Args, probe: bool) -> Result<Setup, String> {
        let path = args.work_dir.join(format!(
            "train-{}-{}.csv",
            args.workload.name(),
            std::process::id()
        ));
        let loaded = load_registry(args, &path, if probe { 0 } else { SETUP_LOADS });
        let _ = std::fs::remove_file(&path);
        let (registry, setup_s) = loaded?;
        let script = match args.workload {
            Workload::ServeBurst => {
                Script::build(&stream_csvs(args, BURST_ROWS), BURST_ROWS, BURST_ROWS)
            }
            _ => {
                let paced = if probe {
                    PROBE_PACED_ROWS
                } else {
                    paced_rows(args)
                };
                let rows = WARM_ROWS + paced;
                Script::build(&stream_csvs(args, rows), rows, WARM_ROWS)
            }
        };
        let (monitor, _) = registry
            .resolve(MODEL)
            .ok_or_else(|| "the registry lost its model".to_string())?;
        // The memory probe measures serve_commands as the process's first
        // serving work, so it skips the replay.
        let (expected, layers) = if probe {
            (Vec::new(), ServeLayers::default())
        } else {
            replay(&script, &monitor)?
        };
        Ok(Setup {
            registry,
            setup_s,
            script,
            expected,
            layers,
        })
    }
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    }
}

/// The sampled stamps of a closed-loop pass: per stream, the verdict
/// sequence numbers of lines that open a stamp segment.
fn stamp_samples(script: &Script) -> Vec<Vec<(u64, usize)>> {
    let mut samples = vec![Vec::new(); script.streams];
    for (segment, line) in (0..script.lines()).step_by(STAMP_EVERY).enumerate() {
        if let Some((j, seq)) = script.records[line] {
            samples[j].push((seq, segment));
        }
    }
    samples
}

/// One closed-loop pass.
struct BurstPass {
    wall: Duration,
    latencies: Vec<u32>,
    stamps: Vec<u64>,
    allocations: u64,
    failed: u64,
    unexpected: bool,
}

fn burst_pass(setup: &mut Setup, samples: &[Vec<(u64, usize)>]) -> Result<BurstPass, String> {
    let script = &setup.script;
    let shared = Shared::new(segment_bounds(script).len());
    let total_samples = samples.iter().map(Vec::len).sum();
    let mut sink = Sink::new(
        &shared,
        Timing::Sampled(samples),
        script.streams,
        total_samples,
    );
    let reader = SampledReader::new(script, &shared);
    let allocs = allocations();
    let start = Instant::now();
    serve_commands(&mut setup.registry, reader, &mut *sink, &options())
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let allocations = allocations() - allocs;
    let (failed, unexpected) = sink.failed_records(&setup.expected, script.rows);
    Ok(BurstPass {
        wall,
        latencies: std::mem::take(&mut sink.latencies),
        stamps: shared
            .stamps
            .iter()
            .map(|stamp| stamp.load(Ordering::Relaxed))
            .collect(),
        allocations,
        failed,
        unexpected,
    })
}

/// One open-loop pass.
struct PacedPass {
    latencies: Vec<u32>,
    lateness: Lateness,
    rate: f64,
    failed: u64,
    unexpected: bool,
}

fn paced_pass(setup: &mut Setup) -> Result<PacedPass, String> {
    let script = &setup.script;
    let shared = Shared::new(0);
    let timing = Timing::Paced {
        warm_rows: script.warm_rows as u64,
        streams: script.streams as u64,
        schedule: Schedule::per_second(PACED_RATE),
    };
    let mut sink = Sink::new(
        &shared,
        timing,
        script.streams,
        script.paced_events() as usize,
    );
    let mut reader = PacedReader::new(script, &shared);
    serve_commands(&mut setup.registry, &mut reader, &mut *sink, &options())
        .map_err(|e| e.to_string())?;
    let (failed, unexpected) = sink.failed_records(&setup.expected, script.rows);
    let paced_ns = sink
        .last_verdict_ns
        .saturating_sub(shared.t0_ns.load(Ordering::Relaxed));
    Ok(PacedPass {
        rate: script.paced_events() as f64 / (paced_ns as f64 / 1e9),
        latencies: std::mem::take(&mut sink.latencies),
        lateness: std::mem::take(&mut reader.lateness),
        failed,
        unexpected,
    })
}

fn flag_generator(pass: &PacedPass) -> bool {
    let behind = pass.lateness.fell_behind();
    if behind {
        eprintln!(
            "perfbench: the generator fell behind the {PACED_RATE}/s schedule \
             (p99 lateness {:.1} us); this run's latencies are not valid",
            pass.lateness.p99_us()
        );
    }
    behind
}

/// The timed run.
///
/// # Errors
///
/// Describes a pass that could not run at all.
pub fn run_timed(args: &Args, setup: &mut Setup, peak_heap_mb: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut correct = true;
    let (mut rate, mut p50) = (Vec::new(), Vec::new());
    match args.workload {
        Workload::ServeBurst => {
            let samples = stamp_samples(&setup.script);
            let start = Instant::now();
            let budget = Duration::from_secs(args.seconds);
            while rate.is_empty() || start.elapsed() < budget {
                let pass = burst_pass(setup, &samples)?;
                outcome.attempted += setup.script.events();
                outcome.failed += pass.failed;
                correct &= !pass.unexpected;
                rate.push(setup.script.events() as f64 / pass.wall.as_secs_f64());
                p50.push(percentile_us(&pass.latencies, 0.5));
            }
        }
        _ => {
            let pass = paced_pass(setup)?;
            outcome.attempted += setup.script.events();
            outcome.failed += pass.failed;
            correct &= !pass.unexpected && !flag_generator(&pass);
            rate.push(pass.rate);
            // The median per second of the schedule, then the median over
            // seconds: a burst of host noise moves its own second only.
            for second in pass.latencies.chunks(PACED_RATE as usize) {
                p50.push(percentile_us(second, 0.5));
            }
        }
    }
    outcome.correct = correct && outcome.failed == 0;
    outcome.metrics = vec![
        metric("setup_s", setup.setup_s, "s"),
        metric("events_per_s", median(&mut rate), "1/s"),
        metric("latency_p50_us", median(&mut p50), "us"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
    ];
    Ok(outcome)
}

/// The peak-memory probe: one closed-loop pass of the script.
///
/// # Errors
///
/// Describes a pass that could not run.
pub fn probe(setup: &mut Setup) -> Result<(), String> {
    let shared = Shared::new(0);
    let mut sink = Sink::new(&shared, Timing::None, setup.script.streams, 0);
    serve_commands(
        &mut setup.registry,
        &setup.script.text[..],
        &mut *sink,
        &options(),
    )
    .map_err(|e| e.to_string())
    .map(|_| ())
}

/// Per-layer figures of a traced serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeTrace {
    layers: ServeLayers,
    event_ns: f64,
    dispatch_ns: f64,
    stall_share: f64,
    stalls: u64,
    handoff_p50_us: f64,
    allocs_per_event: f64,
    verdict_p50_us: f64,
    verdict_p90_us: f64,
    verdict_p99_us: f64,
    generator_late_p99_us: f64,
}

/// The traced run: the replay's layer split plus one `serve_commands` pass
/// with the benchmark's own stamping reader and checking sink.
///
/// # Errors
///
/// Describes a pass that could not run at all.
pub fn run_traced(args: &Args, setup: &mut Setup) -> Result<(Outcome, ServeTrace), String> {
    let mut outcome = Outcome::default();
    let layers = setup.layers.clone();
    let mut trace = ServeTrace {
        layers: layers.clone(),
        ..ServeTrace::default()
    };
    let unexpected = match args.workload {
        Workload::ServeBurst => {
            // Passes until the run's time is up; the pass with the median
            // per-event time is reported, so its split adds up exactly.
            let samples = stamp_samples(&setup.script);
            let events = setup.script.events();
            let start = Instant::now();
            let mut passes = Vec::new();
            let mut unexpected = false;
            while passes.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
                let pass = burst_pass(setup, &samples)?;
                outcome.attempted += events;
                outcome.failed += pass.failed;
                unexpected |= pass.unexpected;
                passes.push(pass);
            }
            passes.sort_by_key(|pass| pass.wall);
            let pass = passes.swap_remove(passes.len() / 2);
            let mut detector = StallDetector::new(STALL_THRESHOLD_NS);
            for &stamp in &pass.stamps {
                detector.observe(stamp);
            }
            trace.event_ns = pass.wall.as_nanos() as f64 / events as f64;
            trace.dispatch_ns = trace.event_ns - layers.all_layers_ns();
            trace.stalls = detector.stalls();
            trace.stall_share = detector.stalled_ns() as f64 / pass.wall.as_nanos() as f64;
            trace.allocs_per_event = pass.allocations as f64 / events as f64;
            unexpected
        }
        _ => {
            let allocs = allocations();
            let pass = paced_pass(setup)?;
            outcome.attempted = setup.script.events();
            let events = setup.script.events() as f64;
            trace.allocs_per_event = (allocations() - allocs) as f64 / events;
            trace.verdict_p50_us = percentile_us(&pass.latencies, 0.5);
            trace.verdict_p90_us = percentile_us(&pass.latencies, 0.9);
            trace.verdict_p99_us = percentile_us(&pass.latencies, 0.99);
            trace.generator_late_p99_us = pass.lateness.p99_us();
            trace.handoff_p50_us = trace.verdict_p50_us - layers.four_layers_ns() / 1000.0;
            outcome.failed = pass.failed;
            pass.unexpected || flag_generator(&pass)
        }
    };
    outcome.correct = !unexpected && outcome.failed == 0;
    Ok((outcome, trace))
}

/// The serving layers' per-layer metrics (all zero for a learning run).
pub fn layer_metrics(trace: &ServeTrace) -> Vec<Metric> {
    let l = &trace.layers;
    let per_event = |allocs: u64| allocs as f64 / l.events.max(1) as f64;
    let novel_share = if l.windows == 0 {
        0.0
    } else {
        l.novel as f64 / l.windows as f64
    };
    let calibrate_ms = if l.calibrations == 0 {
        0.0
    } else {
        l.calibrate_ns as f64 / l.calibrations as f64 / 1e6
    };
    vec![
        metric("protocol.parse_ns", l.parse(), "ns"),
        metric(
            "protocol.parse_allocs",
            per_event(l.parse_allocs),
            "1/event",
        ),
        metric("trace.decode_ns", l.decode(), "ns"),
        metric("trace.decode_allocs", per_event(l.decode_allocs), "1/event"),
        metric("monitor.push_ns", l.push(), "ns"),
        metric("monitor.push_allocs", per_event(l.push_allocs), "1/event"),
        metric("monitor.novel_share", novel_share, "share"),
        metric("monitor.calibrate_ms", calibrate_ms, "ms"),
        metric("protocol.emit_ns", l.emit(), "ns"),
        metric("protocol.emit_allocs", per_event(l.emit_allocs), "1/event"),
        metric("serve.event_ns", trace.event_ns, "ns"),
        metric("mux.dispatch_ns", trace.dispatch_ns, "ns"),
        metric("mux.input_stall_share", trace.stall_share, "share"),
        metric("mux.stalls", trace.stalls as f64, "count"),
        metric("mux.handoff_p50_us", trace.handoff_p50_us, "us"),
        metric("serve.allocs_per_event", trace.allocs_per_event, "1/event"),
        metric("serve.verdict_p50_us", trace.verdict_p50_us, "us"),
        metric("serve.verdict_p90_us", trace.verdict_p90_us, "us"),
        metric("serve.verdict_p99_us", trace.verdict_p99_us, "us"),
        metric(
            "serve.generator_late_p99_us",
            trace.generator_late_p99_us,
            "us",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args(workload: Workload) -> Args {
        Args {
            workload,
            seed: 3,
            seconds: 1,
            work_dir: std::env::current_exe()
                .unwrap()
                .with_file_name("perfbench-tests"),
            memory_probe: false,
        }
    }

    #[test]
    fn scripts_deal_rows_round_robin() {
        let streams = vec![csv_of(System::Counter, 3, 0), csv_of(System::Counter, 3, 0)];
        let script = Script::build(&streams, 3, 1);
        let text = std::str::from_utf8(&script.text).unwrap();
        assert_eq!(
            text,
            "open s0 m\nopen s1 m\ndata s0 x:int\ndata s1 x:int\n\
             data s0 1\ndata s1 1\ndata s0 2\ndata s1 2\ndata s0 3\ndata s1 3\n\
             close s0\nclose s1\n"
        );
        assert_eq!(script.records[4], Some((0, 1)));
        assert_eq!(script.records[9], Some((1, 3)));
        assert_eq!(script.paced, (6, 10));
        assert_eq!(script.events(), 6);
        assert_eq!(script.line(2), b"data s0 x:int");
    }

    #[test]
    fn the_sink_accepts_the_servers_output_and_rejects_a_corrupted_replay() {
        let args = tiny_args(Workload::ServeBurst);
        let mut setup = Setup::new(&args, false).unwrap();
        let samples = stamp_samples(&setup.script);
        let pass = burst_pass(&mut setup, &samples).unwrap();
        assert_eq!((pass.failed, pass.unexpected), (0, false));
        assert!(!pass.latencies.is_empty());
        setup.expected[2].hash ^= 1;
        let pass = burst_pass(&mut setup, &samples).unwrap();
        assert_eq!(pass.failed, BURST_ROWS as u64);
    }

    #[test]
    fn a_paced_pass_keeps_its_schedule() {
        let mut args = tiny_args(Workload::ServePaced);
        args.seconds = 2;
        let mut setup = Setup::new(&args, true).unwrap();
        let pass = paced_pass(&mut setup).unwrap();
        assert_eq!((pass.failed, pass.unexpected), (0, false));
        assert_eq!(pass.lateness.releases(), PACED_STREAMS * PROBE_PACED_ROWS);
        assert_eq!(pass.latencies.len(), PACED_STREAMS * PROBE_PACED_ROWS);
        assert!(pass.rate > 0.5 * PACED_RATE as f64, "{}", pass.rate);
    }
}
