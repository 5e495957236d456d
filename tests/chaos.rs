//! Chaos suite: deterministic fault injection against the serving pipeline.
//!
//! Every test arms a pinned [`FaultPlan`] — same seed, same occurrence
//! numbers — so each "random" failure is a *named, reproducible* event, and
//! the assertions can be exact: a worker crash must cost an `info` line and
//! nothing else, so the verdict/summary sequence of every surviving stream
//! is compared byte-for-byte against a fault-free run of the same input.
//!
//! The plan registry is process-global, so tests serialize on one mutex and
//! each installs its own plan (which resets all occurrence counters).
//!
//! [`FaultPlan`]: tracelearn_faults::FaultPlan

#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use tracelearn_core::{LearnError, Learner, LearnerConfig};
use tracelearn_faults::{disarm, install, FaultPlan};
use tracelearn_serve::{
    serve_commands, serve_csv_stream, ModelSpec, Registry, ServeOptions, ServeSummary,
};
use tracelearn_trace::{StreamingCsvReader, Trace, TraceError};
use tracelearn_workloads::Workload;

/// The armed fault plan is process-global state: serialize every test.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `spec` for the duration of one closure, guaranteeing disarm on exit
/// even when an assertion inside panics (the next test re-serializes anyway,
/// but a leftover plan would corrupt *its* occurrence counts).
fn with_plan<T>(spec: &str, run: impl FnOnce() -> T) -> T {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            disarm();
        }
    }
    let _guard = Disarm;
    install(FaultPlan::parse(spec).expect("test plan must parse"));
    run()
}

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

fn options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        calibration_events: 64,
        stall_timeout: Duration::from_millis(100),
        ..ServeOptions::default()
    }
}

/// Builds a two-stream multiplexed protocol script over the counter trace.
fn two_stream_input() -> String {
    let csv = counter_csv(300);
    let mut lines = csv.lines();
    let header = lines.next().unwrap().to_string();
    let records: Vec<String> = lines.map(str::to_string).collect();
    let mut input = String::new();
    input.push_str("open a counter\nopen b counter\n");
    input.push_str(&format!("data a {header}\ndata b {header}\n"));
    for record in &records {
        input.push_str(&format!("data a {record}\ndata b {record}\n"));
    }
    input.push_str("close a\nclose b\n");
    input
}

fn run_commands(
    registry: &mut Registry,
    input: &str,
    options: &ServeOptions,
) -> (ServeSummary, String) {
    let mut output = Vec::new();
    let summary = serve_commands(registry, input.as_bytes(), &mut output, options)
        .expect("serving must not return an I/O error");
    (summary, String::from_utf8(output).expect("output is UTF-8"))
}

/// A unique, empty state directory for one test.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tracelearn-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The stream snapshots currently in `dir`, as `(stream, seq)` pairs sorted
/// by stream name.
fn snapshot_coverage(dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut coverage = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return coverage;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("stream-") || !name.ends_with(".snap") {
            continue;
        }
        let snapshot = tracelearn_persist::load_stream(&entry.path())
            .expect("snapshot on disk must load in this scenario");
        coverage.push((snapshot.stream, snapshot.seq));
    }
    coverage.sort();
    coverage
}

/// Strips the wall-clock latency fields from a summary line: they are the
/// one part of the output that legitimately differs between two runs of the
/// same plan. Everything before them — events, windows, deviations,
/// conformance — is part of the byte-identity contract.
fn strip_latency(line: &str) -> String {
    match line.split_once(" p50_us=") {
        Some((semantic, _)) if line.starts_with("summary ") => semantic.to_string(),
        _ => line.to_string(),
    }
}

/// The verdict/summary/error lines of one stream, in emission order —
/// the byte-identity unit of the chaos contract (`info` lines excluded:
/// supervision noise is allowed to differ, stream content is not).
fn stream_lines(output: &str, stream: &str) -> Vec<String> {
    output
        .lines()
        .filter(|line| {
            let mut parts = line.split_whitespace();
            let kind = parts.next().unwrap_or("");
            parts.next() == Some(stream) && matches!(kind, "verdict" | "summary" | "error")
        })
        .map(strip_latency)
        .collect()
}

#[test]
fn worker_panic_is_invisible_in_stream_output() {
    let _lock = serial();
    let mut registry = counter_registry();
    let input = two_stream_input();
    let options = options();

    disarm();
    let (baseline_summary, baseline) = run_commands(&mut registry, &input, &options);
    assert_eq!(baseline_summary.failed, 0);
    assert_eq!(baseline_summary.restarted, 0);

    // The 100th data task panics its worker mid-run.
    let (summary, output) = with_plan("seed:7,spec:worker.panic@100", || {
        run_commands(&mut registry, &input, &options)
    });

    assert!(summary.restarted >= 1, "no restart recorded: {summary:?}");
    assert!(summary.replayed >= 1, "no replay recorded: {summary:?}");
    assert_eq!(summary.failed, 0, "a surviving stream failed:\n{output}");
    assert_eq!(summary.streams, baseline_summary.streams);
    assert_eq!(summary.events, baseline_summary.events);
    assert_eq!(summary.deviations, baseline_summary.deviations);
    assert!(
        output.contains("info - worker 0 restarted"),
        "no supervision info line in:\n{output}"
    );
    assert!(
        output.contains("records after worker loss"),
        "no replay info line in:\n{output}"
    );
    for stream in ["a", "b"] {
        assert_eq!(
            stream_lines(&output, stream),
            stream_lines(&baseline, stream),
            "stream {stream} diverged from the fault-free run"
        );
    }
}

#[test]
fn worker_stall_is_condemned_and_replayed() {
    let _lock = serial();
    let mut registry = counter_registry();
    let input = two_stream_input();
    let options = options();

    disarm();
    let (_, baseline) = run_commands(&mut registry, &input, &options);

    // The 150th data task wedges its worker until the watchdog condemns it.
    let (summary, output) = with_plan("seed:7,spec:worker.stall@150", || {
        run_commands(&mut registry, &input, &options)
    });

    assert!(
        summary.restarted >= 1,
        "stall was not condemned: {summary:?}"
    );
    assert_eq!(summary.failed, 0, "a surviving stream failed:\n{output}");
    for stream in ["a", "b"] {
        assert_eq!(
            stream_lines(&output, stream),
            stream_lines(&baseline, stream),
            "stream {stream} diverged from the fault-free run"
        );
    }
}

#[test]
fn chaos_runs_are_reproducible_under_a_pinned_seed() {
    let _lock = serial();
    let mut registry = counter_registry();
    let input = two_stream_input();
    let options = options();

    // Without worker replacement, one worker processes tasks in input order:
    // the *entire* output is deterministic once wall-clock latencies are
    // masked — dropped lines included, because the occurrence counter ties
    // the fault to a specific write, not a specific moment.
    let drop_plan = "seed:42,spec:transport.drop@20;transport.half@200";
    let (first_summary, first) =
        with_plan(drop_plan, || run_commands(&mut registry, &input, &options));
    let (second_summary, second) =
        with_plan(drop_plan, || run_commands(&mut registry, &input, &options));
    let mask = |output: &str| {
        output
            .lines()
            .map(strip_latency)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(mask(&first), mask(&second), "same plan, different output");
    assert_eq!(first_summary.events, second_summary.events);
    assert_eq!(first_summary.failed, second_summary.failed);

    // With worker replacement, cross-stream interleaving depends on *when*
    // the crash was detected — but every stream's own line sequence is still
    // byte-identical between the two runs.
    let crash_plan = "seed:42,spec:worker.panic@73";
    let (first_summary, first) =
        with_plan(crash_plan, || run_commands(&mut registry, &input, &options));
    let (second_summary, second) =
        with_plan(crash_plan, || run_commands(&mut registry, &input, &options));
    for stream in ["a", "b"] {
        assert_eq!(
            stream_lines(&first, stream),
            stream_lines(&second, stream),
            "stream {stream} differed between two runs of the same plan"
        );
    }
    assert!(first_summary.restarted >= 1);
    assert!(second_summary.restarted >= 1);
    assert_eq!(first_summary.events, second_summary.events);
    assert_eq!(first_summary.failed, second_summary.failed);
}

#[test]
fn exhausted_replay_log_sacrifices_only_the_affected_streams() {
    let _lock = serial();
    let mut registry = counter_registry();
    let input = two_stream_input();
    let options = ServeOptions {
        // No replay log at all: a worker death takes its streams with it.
        replay_budget: 0,
        ..options()
    };

    let (summary, output) = with_plan("seed:7,spec:worker.panic@100", || {
        run_commands(&mut registry, &input, &options)
    });

    assert!(summary.restarted >= 1, "no restart recorded: {summary:?}");
    assert_eq!(summary.replayed, 0);
    // Both streams rode the one worker, so both are sacrificed — but each
    // gets an explicit error line and the run itself stays up.
    assert_eq!(
        summary.failed, 2,
        "unexpected summary: {summary:?}\n{output}"
    );
    assert_eq!(summary.streams, 2);
    assert!(
        output.contains("worker lost and replay log exhausted; stream dropped"),
        "no sacrifice error in:\n{output}"
    );
}

#[test]
fn drain_deadline_bounds_a_hung_worker() {
    let _lock = serial();
    let mut registry = counter_registry();
    let input = two_stream_input();
    let options = ServeOptions {
        // The watchdog would need 10s to condemn the stall, but shutdown
        // only waits 200ms: the draining deadline must win.
        stall_timeout: Duration::from_secs(10),
        drain_timeout: Duration::from_millis(200),
        ..options()
    };

    let (summary, output) = with_plan("seed:7,spec:worker.stall@550", || {
        run_commands(&mut registry, &input, &options)
    });

    // The stall hit after most data was processed; shutdown gives up at the
    // deadline and accounts both streams as lost rather than hanging.
    assert_eq!(
        summary.failed, 2,
        "unexpected summary: {summary:?}\n{output}"
    );
    assert!(
        output.contains("stream lost in shutdown"),
        "no shutdown-loss error in:\n{output}"
    );
}

#[test]
fn short_read_truncates_a_csv_stream_cleanly() {
    let _lock = serial();
    let registry = counter_registry();
    let monitors = registry.monitors();
    let monitor = &monitors["counter"];
    let csv = counter_csv(300);

    // The 100th record read reports end-of-input instead. The header is a
    // record too (occurrence 1), so 98 data records survive.
    let (outcome, output) = with_plan("seed:7,spec:csv.short@100", || {
        let mut output = Vec::new();
        let outcome =
            serve_csv_stream(monitor, "pipe", csv.as_bytes(), &mut output, &options()).unwrap();
        (outcome, String::from_utf8(output).unwrap())
    });

    assert!(
        !outcome.failed,
        "a short read is a clean early end:\n{output}"
    );
    assert_eq!(outcome.events, 98);
    assert!(output.contains("summary pipe events=98"), "{output}");
}

#[test]
fn corrupt_byte_fails_one_stream_with_a_parse_error() {
    let _lock = serial();
    let registry = counter_registry();
    let monitors = registry.monitors();
    let monitor = &monitors["counter"];
    let csv = counter_csv(300);

    // One seeded byte of the 50th record is replaced with U+001A, which can
    // parse as neither a number nor an event name.
    let (outcome, output) = with_plan("seed:7,spec:csv.corrupt@50", || {
        let mut output = Vec::new();
        let outcome =
            serve_csv_stream(monitor, "pipe", csv.as_bytes(), &mut output, &options()).unwrap();
        (outcome, String::from_utf8(output).unwrap())
    });

    assert!(outcome.failed, "corruption must fail the stream:\n{output}");
    assert!(
        output.contains("error pipe "),
        "no error line in:\n{output}"
    );
    assert!(!output.contains("summary "), "no summary after failure");
}

/// The trace `read_chunk` yields under the armed `spec`, or the error it
/// stops with.
fn read_chunks_under(spec: &str, csv: &str) -> Result<Trace, TraceError> {
    with_plan(spec, || {
        let mut reader = StreamingCsvReader::new(csv.as_bytes())?;
        let (mut observations, mut chunk) = (Vec::new(), Vec::new());
        while reader.read_chunk(64, &mut chunk)? > 0 {
            observations.append(&mut chunk);
        }
        let (signature, symbols) = reader.into_parts();
        Trace::from_parts(signature, symbols, observations)
    })
}

#[test]
fn learn_streamed_meets_ingestion_faults_where_read_chunk_does() {
    let _lock = serial();
    let csv = counter_csv(300);
    let learner = Learner::new(LearnerConfig::default());
    let learn_streamed = |spec: &str| {
        with_plan(spec, || {
            let reader = StreamingCsvReader::new(csv.as_bytes()).expect("the header is intact");
            learner.learn_streamed(reader)
        })
    };

    // The short read ends the stream before data record 99, however the
    // reader reads on: a chunked reader and the id path both keep the 98
    // records before the cut, as `serve_csv_stream` does.
    let spec = "seed:7,spec:csv.short@100";
    let trace = read_chunks_under(spec, &csv).expect("no record is malformed");
    assert_eq!(trace.len(), 98);
    let expected = learner.learn(&trace).expect("the counter is learnable");
    let model = learn_streamed(spec).expect("the counter is learnable");
    assert_eq!(model.stats().trace_length, trace.len());
    assert_eq!(model.predicate_sequence(), expected.predicate_sequence());

    // A corrupt record fails both paths at the same line, with the same
    // message.
    let spec = "seed:7,spec:csv.corrupt@50";
    let error = read_chunks_under(spec, &csv).expect_err("the corrupt record fails");
    assert!(
        matches!(error, TraceError::Parse { line: 50, .. }),
        "{error:?}"
    );
    match learn_streamed(spec) {
        Err(LearnError::Trace(streamed)) => assert_eq!(streamed, error),
        other => panic!("expected the parse error {error:?}, got {other:?}"),
    }
}

#[test]
fn torn_record_outcomes_are_deterministic() {
    let _lock = serial();
    let registry = counter_registry();
    let monitors = registry.monitors();
    let monitor = &monitors["counter"];
    let csv = counter_csv(300);

    // A torn record may parse (a truncated integer is still an integer) or
    // fail — either way the pinned seed makes both runs agree exactly.
    let run = || {
        with_plan("seed:11,spec:csv.torn@40x3", || {
            let mut output = Vec::new();
            let outcome =
                serve_csv_stream(monitor, "pipe", csv.as_bytes(), &mut output, &options()).unwrap();
            (outcome, String::from_utf8(output).unwrap())
        })
    };
    let (first_outcome, first) = run();
    let (second_outcome, second) = run();
    let mask = |output: &str| output.lines().map(strip_latency).collect::<Vec<_>>();
    assert_eq!(mask(&first), mask(&second));
    assert_eq!(first_outcome, second_outcome);
}

#[test]
fn spurious_budget_exhaustion_fails_learning_loudly() {
    let _lock = serial();
    // Every solver call reports its budget exhausted: model learning at
    // registry load cannot succeed, and must say why rather than hang or
    // return a half-learned model.
    let error = with_plan("seed:7,spec:sat.budget@1x100000", || {
        let specs = vec![ModelSpec::parse("counter=workload:counter:600").unwrap()];
        Registry::load(&specs).expect_err("learning cannot succeed without a solver")
    });
    let message = error.to_string().to_lowercase();
    assert!(
        message.contains("budget") || message.contains("exhaust"),
        "unhelpful learning error: {message}"
    );
}

#[test]
fn dropped_output_lines_do_not_derail_the_stream() {
    let _lock = serial();
    let registry = counter_registry();
    let monitors = registry.monitors();
    let monitor = &monitors["counter"];
    let csv = counter_csv(300);

    disarm();
    let mut baseline = Vec::new();
    let baseline_outcome =
        serve_csv_stream(monitor, "pipe", csv.as_bytes(), &mut baseline, &options()).unwrap();
    let baseline = String::from_utf8(baseline).unwrap();

    // The 10th output line is swallowed by the transport.
    let (outcome, output) = with_plan("seed:7,spec:transport.drop@10", || {
        let mut output = Vec::new();
        let outcome =
            serve_csv_stream(monitor, "pipe", csv.as_bytes(), &mut output, &options()).unwrap();
        (outcome, String::from_utf8(output).unwrap())
    });

    // Monitoring is unaffected — only the wire lost a line.
    assert_eq!(outcome, baseline_outcome);
    assert_eq!(output.lines().count() + 1, baseline.lines().count());
}

/// The headline crash-durability scenario: the daemon is "killed" (injected
/// `persist.interrupt`) partway through a checkpoint cycle, restarted
/// against the same state directory, and every recovered stream's
/// *subsequent* verdict/summary lines must be byte-identical to an
/// uninterrupted run. Streams whose snapshot never landed simply start
/// over — also byte-identical from scratch.
#[test]
fn kill_during_checkpoint_recovers_streams_byte_identically() {
    let _lock = serial();
    let dir = state_dir("kill-ckpt");
    let input = two_stream_input();
    let csv = counter_csv(300);
    let records: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
    let options = ServeOptions {
        state_dir: Some(dir.clone()),
        checkpoint_every: 100,
        ..options()
    };

    // The uninterrupted reference run (no state machinery involved).
    disarm();
    let plain = ServeOptions {
        state_dir: None,
        ..options.clone()
    };
    let (baseline_summary, baseline) = run_commands(&mut counter_registry(), &input, &plain);
    assert_eq!(baseline_summary.failed, 0);

    // The crash: checkpoint cycle 1 snapshots stream `a` (interrupt check
    // 1 passes), then dies before stream `b` (check 2 fires) — a torn
    // checkpoint *cycle*, with one stream durable and one not.
    let (summary, _) = with_plan("seed:7,spec:persist.interrupt@2", || {
        run_commands(&mut counter_registry(), &input, &options)
    });
    assert!(summary.aborted, "interrupt did not abort: {summary:?}");
    assert_eq!(summary.checkpoints, 1, "{summary:?}");

    let coverage = snapshot_coverage(&dir);
    assert_eq!(coverage.len(), 1, "one durable snapshot: {coverage:?}");
    let (ref covered_stream, covered_seq) = coverage[0];
    assert_eq!(covered_stream, "a");
    assert!(covered_seq >= 2, "snapshot covers the header and some data");

    // The restart: the client resumes each stream where the *snapshot*
    // says it stands — `a` from its covered sequence, `b` from scratch.
    disarm();
    let consumed = (covered_seq - 1) as usize;
    let header = csv.lines().next().unwrap();
    let mut continuation = String::new();
    for record in &records[consumed..] {
        continuation.push_str(&format!("data a {record}\n"));
    }
    continuation.push_str("close a\n");
    continuation.push_str(&format!("open b counter\ndata b {header}\n"));
    for record in &records {
        continuation.push_str(&format!("data b {record}\n"));
    }
    continuation.push_str("close b\n");
    let (restarted, output) = run_commands(&mut counter_registry(), &continuation, &options);

    assert_eq!(restarted.recovered, 1, "{output}");
    assert_eq!(restarted.reset, 0, "{output}");
    assert_eq!(restarted.failed, 0, "{output}");
    assert!(
        output.contains(&format!("recovered a seq={covered_seq} events={consumed}")),
        "{output}"
    );
    // Stream `a` continues exactly where the crash left it: its post-crash
    // lines equal the tail of the uninterrupted run.
    let expected_tail: Vec<String> = stream_lines(&baseline, "a")[consumed..].to_vec();
    assert_eq!(
        stream_lines(&output, "a"),
        expected_tail,
        "recovered stream diverged from the uninterrupted run"
    );
    // Stream `b` was never durable: re-opened from scratch, it reproduces
    // the full uninterrupted sequence.
    assert_eq!(
        stream_lines(&output, "b"),
        stream_lines(&baseline, "b"),
        "reset stream diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn snapshot write lands on disk looking published (rename included —
/// the crash image of a host that died mid-write), so the *restart* must
/// reject it with a typed error and reset the stream, never resume against
/// half a snapshot.
#[test]
fn torn_checkpoint_is_rejected_and_reset_on_restart() {
    let _lock = serial();
    let dir = state_dir("torn-ckpt");
    let input = two_stream_input();
    let options = ServeOptions {
        state_dir: Some(dir.clone()),
        checkpoint_every: 100,
        ..options()
    };

    // Cycle 1: stream `a`'s snapshot write is torn (but lands), then the
    // interrupt kills the daemon before stream `b`.
    let (summary, _) = with_plan("seed:7,spec:persist.torn@1;persist.interrupt@2", || {
        run_commands(&mut counter_registry(), &input, &options)
    });
    assert!(summary.aborted, "{summary:?}");

    disarm();
    let (restarted, output) = run_commands(&mut counter_registry(), "", &options);
    assert_eq!(restarted.recovered, 0, "{output}");
    assert_eq!(restarted.reset, 1, "{output}");
    assert!(
        output.contains("reset a snapshot rejected:"),
        "torn snapshot not rejected in:\n{output}"
    );
    // The damaged file is gone: the next start is silent.
    let (third, _) = run_commands(&mut counter_registry(), "", &options);
    assert_eq!(third.reset, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed snapshot *rename* is an explicit error: the checkpoint reports
/// it on an `info` line, keeps the stream dirty, and the next cycle
/// retries successfully — the run itself never degrades.
#[test]
fn failed_snapshot_rename_is_retried_next_cycle() {
    let _lock = serial();
    let dir = state_dir("rename-ckpt");
    let input = two_stream_input();
    let options = ServeOptions {
        state_dir: Some(dir.clone()),
        checkpoint_every: 100,
        ..options()
    };

    let (summary, output) = with_plan("seed:7,spec:persist.rename@1", || {
        run_commands(&mut counter_registry(), &input, &options)
    });
    assert_eq!(summary.failed, 0, "{output}");
    assert!(!summary.aborted);
    assert!(
        output.contains("info a checkpoint failed:"),
        "no checkpoint-failure info line in:\n{output}"
    );
    // Later cycles succeeded, and the clean closes swept the files away.
    assert!(summary.checkpoints >= 1, "{summary:?}");
    assert!(snapshot_coverage(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot read truncated mid-flight (`persist.short`) at recovery is a
/// typed rejection and a `reset`, never a panic or a wrong resume.
#[test]
fn short_snapshot_read_resets_the_stream_on_recovery() {
    let _lock = serial();
    let dir = state_dir("short-ckpt");
    let input = two_stream_input();
    let options = ServeOptions {
        state_dir: Some(dir.clone()),
        checkpoint_every: 100,
        ..options()
    };

    // Leave one healthy snapshot behind via an interrupted run.
    let (summary, _) = with_plan("seed:7,spec:persist.interrupt@2", || {
        run_commands(&mut counter_registry(), &input, &options)
    });
    assert!(summary.aborted);
    assert_eq!(snapshot_coverage(&dir).len(), 1);

    // The restart's read of that snapshot comes up short.
    let (restarted, output) = with_plan("seed:7,spec:persist.short@1", || {
        run_commands(&mut counter_registry(), "", &options)
    });
    assert_eq!(restarted.recovered, 0, "{output}");
    assert_eq!(restarted.reset, 1, "{output}");
    assert!(
        output.contains("reset a snapshot rejected:"),
        "short read not rejected in:\n{output}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reload` under worker loss: a stream opened before the reload stays
/// pinned to its open-time model even when its worker dies *after* the
/// registry moved on — the replay must use the pinned version, so the
/// stream's lines stay byte-identical to a crash-free run with the same
/// reload.
#[test]
fn reload_pins_in_flight_streams_across_worker_loss() {
    let _lock = serial();
    let csv = counter_csv(300);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let records: Vec<&str> = lines.collect();
    let options = options();

    let mut input = String::new();
    input.push_str(&format!("open a counter\ndata a {header}\n"));
    for record in &records[..100] {
        input.push_str(&format!("data a {record}\n"));
    }
    // The registry hot-swaps to a differently-trained version mid-stream.
    input.push_str("reload counter workload:counter:900\n");
    for record in &records[100..] {
        input.push_str(&format!("data a {record}\n"));
    }
    input.push_str("close a\n");

    // Each run gets a fresh registry: a reload mutates the registry, so
    // reusing one would open the second run's stream against version 2.
    disarm();
    let (baseline_summary, baseline) = run_commands(&mut counter_registry(), &input, &options);
    assert_eq!(baseline_summary.failed, 0);

    // Same input, but the worker dies after the reload: the replay has to
    // rebuild stream `a` against version 1, not the reloaded version 2+.
    let (summary, output) = with_plan("seed:7,spec:worker.panic@150", || {
        run_commands(&mut counter_registry(), &input, &options)
    });
    assert!(summary.restarted >= 1, "{summary:?}");
    assert_eq!(summary.failed, 0, "{output}");
    assert_eq!(
        stream_lines(&output, "a"),
        stream_lines(&baseline, "a"),
        "pinned stream diverged after reload + worker loss"
    );
}
