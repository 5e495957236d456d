//! The supervised worker pool behind [`serve_commands`].
//!
//! The dispatcher thread owns all control-plane state: which streams are
//! open, which model *version* and worker each one is bound to, and a
//! bounded [`ReplayLog`] of every stream's raw payloads since open. Workers
//! own only the data plane — one [`MonitorSession`] per resident stream — so
//! a worker is *disposable*: when one panics or stalls, the supervisor
//! spawns a replacement at the same slot and replays each affected stream's
//! log into it, suppressing the verdicts that were already delivered.
//! Sessions are deterministic, so the surviving verdict sequence is
//! byte-identical to an undisturbed run; the client sees one `info` line per
//! restart.
//!
//! Three invariants keep the recovery correct:
//!
//! 1. **Log before dispatch.** The dispatcher records a payload in the
//!    stream's replay log (and flips `closing` on close) *before* handing
//!    the task to a worker, so a task lost to a dying worker is always
//!    covered by the log.
//! 2. **At-most-once output.** Workers publish per-stream progress
//!    (`emitted`, `failed`, `closed`) through atomics; a replacement
//!    suppresses verdicts up to the published high-water mark and skips
//!    streams that already closed.
//! 3. **Bounded everything.** Worker queues are bounded (backpressure on
//!    the dispatcher), replay logs are bounded (an overflowed stream is
//!    sacrificed with an `error` line instead of holding unbounded memory),
//!    and shutdown is deadline-bounded (a wedged worker is condemned, its
//!    streams accounted as failed).
//!
//! Admission control lives here too: beyond `max_open_streams` (globally)
//! or `max_streams_per_tenant` (per stream-name prefix), new `open`s are
//! refused with a `busy` line — an explicit, retryable overload verdict —
//! rather than admitted into a degrading pool.
//!
//! The same replay machinery doubles as the *crash*-durability engine. With
//! a state directory configured, [`Mux::checkpoint`] periodically snapshots
//! each dirty stream — its full replay log plus the worker session's
//! [`SessionCheckpoint`] image, captured in queue order by a
//! [`Task::Snapshot`] — and [`Mux::recover`] replays those snapshots at
//! startup, verifying the rebuilt session against the stored checkpoint
//! before a stream is resumed (`recovered`) rather than discarded
//! (`reset`).
//!
//! [`serve_commands`]: crate::serve_commands
//! [`MonitorSession`]: tracelearn_core::MonitorSession
//! [`ReplayLog`]: tracelearn_core::ReplayLog
//! [`SessionCheckpoint`]: tracelearn_core::SessionCheckpoint

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::engine::{emit, flush, ServeOptions};
use crate::inject;
use crate::latency::LatencyHistogram;
use crate::protocol::{
    busy_line, busy_tenant_line, draining_line, error_line, info_line, recovered_line, reset_line,
    summary_line, verdict_line, Command,
};
use crate::registry::{ModelSpec, Registry};
use crate::state;
use tracelearn_core::{Monitor, MonitorSession, ReplayLog, SessionCheckpoint};
use tracelearn_persist::{load_stream, save_stream, StreamSnapshot};
use tracelearn_trace::CsvRecordDecoder;

/// How long an idle worker waits on its queue before re-checking its
/// cancellation flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long the dispatcher sleeps between retries when a worker queue is
/// full (backpressure) or during shutdown polling.
const BACKPRESSURE_PAUSE: Duration = Duration::from_millis(1);

/// Per-stream progress a worker publishes for its supervisor, so a
/// replacement knows where the output stream left off.
#[derive(Debug, Default)]
pub(crate) struct StreamProgress {
    /// Highest verdict sequence number already written to the client.
    emitted: AtomicU64,
    /// Whether the stream's failure `error` line was already written.
    failed: AtomicBool,
    /// Whether the stream's close (summary or failure) fully landed.
    closed: AtomicBool,
}

/// Run totals shared by all workers; updated at stream close so the numbers
/// survive any individual worker's death.
#[derive(Debug, Default)]
pub(crate) struct SharedTotals {
    streams: AtomicUsize,
    events: AtomicUsize,
    deviations: AtomicUsize,
    failed: AtomicUsize,
}

impl SharedTotals {
    pub(crate) fn streams(&self) -> usize {
        self.streams.load(Ordering::Relaxed)
    }

    pub(crate) fn events(&self) -> usize {
        self.events.load(Ordering::Relaxed)
    }

    pub(crate) fn deviations(&self) -> usize {
        self.deviations.load(Ordering::Relaxed)
    }

    pub(crate) fn failed(&self) -> usize {
        self.failed.load(Ordering::Relaxed)
    }
}

/// The dispatcher's view of one in-flight [`Task::Snapshot`]: the worker
/// publishes its session image here and the dispatcher polls for it.
#[derive(Debug, Default)]
struct SnapshotSlot {
    reply: Mutex<SnapshotReply>,
}

impl SnapshotSlot {
    fn publish(&self, reply: SnapshotReply) {
        let mut guard = self
            .reply
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = reply;
    }

    fn poll(&self) -> SnapshotReply {
        self.reply
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }
}

/// A worker's answer to a [`Task::Snapshot`].
#[derive(Debug, Clone, Default)]
enum SnapshotReply {
    /// Not answered yet (or never: the worker was replaced mid-request).
    #[default]
    Pending,
    /// The stream is no longer resident (already closed on this worker).
    Gone,
    /// The stream's session image as of every task queued before this one.
    Image {
        /// Verdicts computed so far (the worker's sequence counter).
        events: u64,
        /// Whether the stream has failed (nothing durable to keep).
        failed: bool,
        /// The monitor session's resumable state; `None` before the CSV
        /// header arrives.
        checkpoint: Option<SessionCheckpoint>,
    },
}

/// One unit of work routed to a pool worker.
enum Task {
    Open {
        stream: String,
        /// The model clone this stream is pinned to — captured at open (or
        /// recovery) time, so later `reload`s never touch it. Boxed to keep
        /// the queued-task footprint at pointer size.
        monitor: Box<Monitor>,
        progress: Arc<StreamProgress>,
        /// Verdicts with `seq <= suppress_through` were already delivered by
        /// a previous incarnation; recompute them silently.
        suppress_through: u64,
        /// The stream had already failed (its `error` line is out); keep it
        /// failed without repeating the line.
        already_failed: bool,
    },
    Data {
        stream: String,
        payload: String,
    },
    Close {
        stream: String,
    },
    /// Publish the stream's current session image into `slot`. Queued like
    /// any other task, so the image reflects exactly the data dispatched
    /// before it — the property the checkpoint freshness check relies on.
    Snapshot {
        stream: String,
        slot: Arc<SnapshotSlot>,
    },
}

/// Everything a worker borrows from the serving run.
struct WorkerCtx<'m, W: Write> {
    options: &'m ServeOptions,
    output: &'m Mutex<W>,
    totals: &'m SharedTotals,
    latency: &'m Mutex<LatencyHistogram>,
}

impl<'m, W: Write> Clone for WorkerCtx<'m, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'m, W: Write> Copy for WorkerCtx<'m, W> {}

/// One open stream owned by a pool worker.
struct StreamState {
    monitor: Monitor,
    decoder: Option<CsvRecordDecoder>,
    session: Option<MonitorSession>,
    seq: u64,
    events: usize,
    latency: LatencyHistogram,
    failed: bool,
    progress: Arc<StreamProgress>,
    suppress_through: u64,
}

impl StreamState {
    fn new(
        monitor: Monitor,
        progress: Arc<StreamProgress>,
        suppress_through: u64,
        already_failed: bool,
    ) -> Self {
        StreamState {
            monitor,
            decoder: None,
            session: None,
            seq: 0,
            events: 0,
            latency: LatencyHistogram::new(),
            failed: already_failed,
            progress,
            suppress_through,
        }
    }

    fn fail<W: Write>(&mut self, name: &str, message: &str, output: &Mutex<W>) {
        self.failed = true;
        self.progress.failed.store(true, Ordering::Relaxed);
        emit(output, &error_line(name, message));
    }

    /// Feeds one CSV record (the first is the header) into the stream.
    fn data<W: Write>(
        &mut self,
        name: &str,
        payload: &str,
        options: &ServeOptions,
        output: &Mutex<W>,
    ) {
        if self.failed {
            return;
        }
        if self.decoder.is_none() {
            match CsvRecordDecoder::from_header(payload) {
                Ok(decoder) => {
                    if decoder.signature() != self.monitor.model().signature() {
                        self.fail(name, "stream signature does not match the model", output);
                        return;
                    }
                    match self
                        .monitor
                        .session_with_calibration(decoder.signature(), options.calibration_events)
                    {
                        Ok(session) => {
                            self.session = Some(session);
                            self.decoder = Some(decoder);
                        }
                        Err(e) => self.fail(name, &e.to_string(), output),
                    }
                }
                Err(e) => self.fail(name, &e.to_string(), output),
            }
            return;
        }
        // Both halves were installed together by the header branch above; a
        // missing one is an internal inconsistency, which fails this stream
        // rather than the worker.
        let (Some(decoder), Some(session)) = (self.decoder.as_mut(), self.session.as_mut()) else {
            self.failed = true;
            self.progress.failed.store(true, Ordering::Relaxed);
            emit(
                output,
                &error_line(name, "internal: stream state incomplete"),
            );
            return;
        };
        // The header was input line 1 of this stream.
        let observation = match decoder.decode(payload, self.events + 2) {
            Ok(observation) => observation,
            Err(e) => {
                self.fail(name, &e.to_string(), output);
                return;
            }
        };
        let start = Instant::now();
        match session.push_event(&observation, decoder.symbols()) {
            Ok(verdict) => {
                self.latency.record(start.elapsed());
                self.events += 1;
                self.seq += 1;
                if self.seq > self.suppress_through {
                    emit(output, &verdict_line(name, self.seq, &verdict));
                    self.progress.emitted.store(self.seq, Ordering::Relaxed);
                }
            }
            Err(e) => self.fail(name, &e.to_string(), output),
        }
    }

    /// Finishes the stream: end-of-trace checks and the summary line.
    fn close<W: Write>(
        self,
        name: &str,
        output: &Mutex<W>,
        totals: &SharedTotals,
        latency: &Mutex<LatencyHistogram>,
    ) {
        totals.streams.fetch_add(1, Ordering::Relaxed);
        totals.events.fetch_add(self.events, Ordering::Relaxed);
        // At-most-once output: publish the close before the summary goes
        // out, so a crash between the two costs one summary line but never
        // duplicates one.
        self.progress.closed.store(true, Ordering::Relaxed);
        if self.failed {
            // The failure was already reported on its own error line.
            totals.failed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (Some(session), Some(decoder)) = (self.session, self.decoder) else {
            totals.failed.fetch_add(1, Ordering::Relaxed);
            self.progress.failed.store(true, Ordering::Relaxed);
            emit(
                output,
                &error_line(name, "closed before the CSV header arrived"),
            );
            return;
        };
        match session.finish(decoder.symbols()) {
            Ok(report) => {
                totals
                    .deviations
                    .fetch_add(report.deviations.len(), Ordering::Relaxed);
                emit(
                    output,
                    &summary_line(name, self.events, &report, &self.latency),
                );
                let mut shared = latency
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                shared.merge(&self.latency);
            }
            Err(e) => {
                totals.failed.fetch_add(1, Ordering::Relaxed);
                self.progress.failed.store(true, Ordering::Relaxed);
                emit(output, &error_line(name, &e.to_string()));
            }
        }
    }
}

/// The body of one pool worker thread. Exits when its queue closes (normal
/// shutdown, after closing resident streams) or when its cancellation flag
/// is raised (condemned by the watchdog: a replacement owns the streams, so
/// it vanishes without output).
fn worker_loop<W: Write>(
    ctx: WorkerCtx<'_, W>,
    tasks: mpsc::Receiver<Task>,
    cancel: Arc<AtomicBool>,
    completed: Arc<AtomicU64>,
) {
    let mut streams: HashMap<String, StreamState> = HashMap::new();
    loop {
        if cancel.load(Ordering::Relaxed) {
            return;
        }
        let task = match tasks.try_recv() {
            Ok(task) => task,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                // Going idle: hand on every line written so far, this
                // worker's and the dispatcher's, before waiting. A buffered
                // writer would otherwise hold a paced stream's verdicts
                // until it filled up or the input ended.
                flush(ctx.output);
                match tasks.recv_timeout(POLL_INTERVAL) {
                    Ok(task) => task,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match task {
            Task::Open {
                stream,
                monitor,
                progress,
                suppress_through,
                already_failed,
            } => match streams.entry(stream) {
                Entry::Occupied(occupied) => {
                    emit(
                        ctx.output,
                        &error_line(occupied.key(), "stream already open"),
                    );
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(StreamState::new(
                        *monitor,
                        progress,
                        suppress_through,
                        already_failed,
                    ));
                }
            },
            Task::Data { stream, payload } => {
                inject::worker_panic_point();
                if inject::worker_stalled(&cancel) {
                    // Abandon the task without touching the stream: the
                    // watchdog replaced this worker while it was wedged.
                    continue;
                }
                match streams.get_mut(&stream) {
                    Some(state) => state.data(&stream, &payload, ctx.options, ctx.output),
                    None => emit(ctx.output, &error_line(&stream, "data before open")),
                }
            }
            Task::Close { stream } => match streams.remove(&stream) {
                Some(state) => state.close(&stream, ctx.output, ctx.totals, ctx.latency),
                None => emit(ctx.output, &error_line(&stream, "close before open")),
            },
            Task::Snapshot { stream, slot } => match streams.get(&stream) {
                Some(state) => slot.publish(SnapshotReply::Image {
                    events: state.seq,
                    failed: state.failed,
                    checkpoint: state.session.as_ref().map(MonitorSession::checkpoint),
                }),
                None => slot.publish(SnapshotReply::Gone),
            },
        }
        completed.fetch_add(1, Ordering::Relaxed);
    }
    // End of input closes every remaining stream, in a stable order.
    let mut remaining: Vec<(String, StreamState)> = streams.drain().collect();
    remaining.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, state) in remaining {
        if cancel.load(Ordering::Relaxed) {
            // Condemned mid-drain; the replacement finishes the rest.
            return;
        }
        state.close(&name, ctx.output, ctx.totals, ctx.latency);
    }
}

/// One worker slot of the pool. The slot index is the stable routing key
/// (streams hash onto slots); the slot's *incarnation* changes on restart,
/// tracked by `generation`.
struct WorkerSlot<'scope> {
    sender: Option<SyncSender<Task>>,
    handle: Option<thread::ScopedJoinHandle<'scope, ()>>,
    cancel: Arc<AtomicBool>,
    completed: Arc<AtomicU64>,
    /// Tasks handed to this incarnation.
    dispatched: u64,
    /// `completed` as of the last watchdog tick, to detect forward progress.
    last_completed: u64,
    /// When the watchdog first saw this incarnation behind with no progress.
    stalled_since: Option<Instant>,
    generation: u64,
}

/// Dispatcher-side record of one protocol stream.
struct StreamMeta {
    model: String,
    /// The registry version this stream opened against (pinned for life).
    version: u64,
    /// The pinned monitor clone, kept to reattach the stream after a worker
    /// loss even when the registry has since moved to a newer version.
    monitor: Monitor,
    worker: usize,
    progress: Arc<StreamProgress>,
    log: ReplayLog,
    /// Payload lines logged since open (header included) — the sequence
    /// number a checkpoint of this stream covers.
    logged: u64,
    /// Whether data arrived since the last durable checkpoint.
    dirty: bool,
    closing: bool,
}

/// Counters the supervisor accumulates outside the shared totals.
pub(crate) struct MuxStats {
    pub(crate) shed: usize,
    pub(crate) restarted: usize,
    pub(crate) replayed: usize,
    pub(crate) recovered: usize,
    pub(crate) reset: usize,
    pub(crate) checkpoints: usize,
    pub(crate) tenant_shed: BTreeMap<String, usize>,
    pub(crate) shed_latency: LatencyHistogram,
    pub(crate) aborted: bool,
}

/// The supervised multiplexer: owns the worker pool, stream metadata,
/// replay logs, admission control and checkpoint/recovery for one
/// [`serve_commands`] run.
///
/// [`serve_commands`]: crate::serve_commands
pub(crate) struct Mux<'scope, 'env, 'm, W: Write + Send> {
    scope: &'scope thread::Scope<'scope, 'env>,
    registry: &'m mut Registry,
    ctx: WorkerCtx<'m, W>,
    slots: Vec<WorkerSlot<'scope>>,
    /// Condemned-but-running incarnations, joined during shutdown.
    retired: Vec<thread::ScopedJoinHandle<'scope, ()>>,
    metas: HashMap<String, StreamMeta>,
    shed: usize,
    restarted: usize,
    replayed: usize,
    recovered: usize,
    reset: usize,
    checkpoints: usize,
    tenant_shed: BTreeMap<String, usize>,
    shed_latency: LatencyHistogram,
    /// Guards against reentrant restarts while replaying into a fresh
    /// worker; a cascading failure is picked up by the next watchdog tick.
    restarting: bool,
    /// A `shutdown` drain is in progress: new `open`s are refused.
    draining: bool,
    /// An injected checkpoint interrupt fired: stop as if killed, with no
    /// further output or durability work.
    aborted: bool,
}

pub(crate) fn worker_for(stream: &str, workers: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    stream.hash(&mut hasher);
    (hasher.finish() % workers.max(1) as u64) as usize
}

/// The stream's tenant: the name prefix before the first `/`, or the whole
/// name for streams outside any tenant hierarchy.
pub(crate) fn tenant_of(stream: &str) -> &str {
    match stream.split_once('/') {
        Some((tenant, _)) => tenant,
        None => stream,
    }
}

/// Rebuilds a snapshot's monitor session by replaying its logged payloads,
/// returning the resulting [`SessionCheckpoint`] for comparison against the
/// stored one. Any decode or monitoring failure along the way means the
/// snapshot does not describe a healthy stream of this model.
fn verify_replay(
    monitor: &Monitor,
    calibration_events: usize,
    log: &[String],
) -> Result<SessionCheckpoint, String> {
    let Some(header) = log.first() else {
        return Err("empty replay log".to_string());
    };
    let mut decoder = CsvRecordDecoder::from_header(header).map_err(|e| e.to_string())?;
    if decoder.signature() != monitor.model().signature() {
        return Err("stream signature does not match the model".to_string());
    }
    let mut session = monitor
        .session_with_calibration(decoder.signature(), calibration_events)
        .map_err(|e| e.to_string())?;
    for (index, payload) in log.iter().enumerate().skip(1) {
        // Replay numbering matches live serving: the header was line 1.
        let observation = decoder
            .decode(payload, index + 1)
            .map_err(|e| e.to_string())?;
        session
            .push_event(&observation, decoder.symbols())
            .map_err(|e| e.to_string())?;
    }
    Ok(session.checkpoint())
}

impl<'scope, 'env, 'm, W> Mux<'scope, 'env, 'm, W>
where
    'm: 'scope,
    W: Write + Send + 'm,
{
    pub(crate) fn new(
        scope: &'scope thread::Scope<'scope, 'env>,
        registry: &'m mut Registry,
        options: &'m ServeOptions,
        output: &'m Mutex<W>,
        totals: &'m SharedTotals,
        latency: &'m Mutex<LatencyHistogram>,
    ) -> Self {
        let ctx = WorkerCtx {
            options,
            output,
            totals,
            latency,
        };
        let mut mux = Mux {
            scope,
            registry,
            ctx,
            slots: Vec::new(),
            retired: Vec::new(),
            metas: HashMap::new(),
            shed: 0,
            restarted: 0,
            replayed: 0,
            recovered: 0,
            reset: 0,
            checkpoints: 0,
            tenant_shed: BTreeMap::new(),
            shed_latency: LatencyHistogram::new(),
            restarting: false,
            draining: false,
            aborted: false,
        };
        for _ in 0..options.workers.max(1) {
            let slot = mux.spawn_slot();
            mux.slots.push(slot);
        }
        mux
    }

    fn spawn_slot(&self) -> WorkerSlot<'scope> {
        let (sender, receiver) = mpsc::sync_channel(self.ctx.options.queue_capacity.max(1));
        let cancel = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicU64::new(0));
        let ctx = self.ctx;
        let thread_cancel = Arc::clone(&cancel);
        let thread_completed = Arc::clone(&completed);
        let handle = self
            .scope
            .spawn(move || worker_loop(ctx, receiver, thread_cancel, thread_completed));
        WorkerSlot {
            sender: Some(sender),
            handle: Some(handle),
            cancel,
            completed,
            dispatched: 0,
            last_completed: 0,
            stalled_since: None,
            generation: 0,
        }
    }

    /// Whether an injected checkpoint interrupt has "killed" this run.
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Routes one parsed protocol command. All protocol-level validation
    /// (unknown model, double open, data/close before open) happens here,
    /// against the dispatcher's own state, so a worker only ever sees
    /// well-formed work. `shutdown` is handled by the caller before input
    /// ends; it is a no-op here.
    pub(crate) fn dispatch(&mut self, command: Command) {
        let start = Instant::now();
        self.cancel_stalled_workers();
        match command {
            Command::Open { stream, model } => self.open(stream, model, start),
            Command::Data { stream, payload } => self.data(stream, payload),
            Command::Close { stream } => self.close(stream),
            Command::Reload { model, spec } => self.reload(&model, &spec),
            Command::Shutdown => {}
        }
    }

    fn open(&mut self, stream: String, model: String, start: Instant) {
        if self.metas.get(&stream).is_some_and(|meta| meta.closing) {
            // A close for this name is still in flight; wait (bounded) for
            // it to land so the name is reusable, matching the serial
            // semantics of a single-worker run.
            self.await_close(&stream);
        }
        if self.metas.contains_key(&stream) {
            emit(self.ctx.output, &error_line(&stream, "stream already open"));
            return;
        }
        if self.draining {
            self.shed += 1;
            self.shed_latency.record(start.elapsed());
            emit(self.ctx.output, &draining_line(&stream));
            return;
        }
        let Some((monitor, version)) = self.registry.resolve(&model) else {
            emit(
                self.ctx.output,
                &error_line(&stream, &format!("unknown model {model:?}")),
            );
            return;
        };
        // Closed streams free their admission slot (and their name).
        self.metas
            .retain(|_, meta| !meta.progress.closed.load(Ordering::Relaxed));
        let limit = self.ctx.options.max_open_streams;
        if limit != 0 && self.metas.len() >= limit {
            // A close dispatched before this open should free its slot
            // before we refuse, matching serial semantics: wait (bounded)
            // for in-flight closes to land, then re-check.
            self.await_closing_slots(limit);
        }
        let open = self.metas.len();
        if limit != 0 && open >= limit {
            self.shed += 1;
            self.shed_latency.record(start.elapsed());
            emit(self.ctx.output, &busy_line(&stream, open, limit));
            return;
        }
        let tenant_limit = self.ctx.options.max_streams_per_tenant;
        if tenant_limit != 0 {
            let tenant = tenant_of(&stream).to_string();
            if self.tenant_open(&tenant) >= tenant_limit {
                // As with the global limit: a close dispatched before this
                // open should free its slot before we refuse.
                self.await_closing_tenant(&tenant, tenant_limit);
            }
            let tenant_open = self.tenant_open(&tenant);
            if tenant_open >= tenant_limit {
                self.shed += 1;
                *self.tenant_shed.entry(tenant.clone()).or_insert(0) += 1;
                self.shed_latency.record(start.elapsed());
                emit(
                    self.ctx.output,
                    &busy_tenant_line(&stream, &tenant, tenant_open, tenant_limit),
                );
                return;
            }
        }
        let worker = worker_for(&stream, self.slots.len());
        let progress = Arc::new(StreamProgress::default());
        self.metas.insert(
            stream.clone(),
            StreamMeta {
                model,
                version,
                monitor: monitor.clone(),
                worker,
                progress: Arc::clone(&progress),
                log: ReplayLog::new(self.ctx.options.replay_budget),
                logged: 0,
                dirty: false,
                closing: false,
            },
        );
        self.send(
            worker,
            Task::Open {
                stream,
                monitor: Box::new(monitor),
                progress,
                suppress_through: 0,
                already_failed: false,
            },
        );
    }

    fn await_close(&mut self, stream: &str) {
        let deadline = Instant::now() + self.ctx.options.stall_timeout.saturating_mul(2);
        loop {
            let Some(meta) = self.metas.get(stream) else {
                return;
            };
            if !meta.closing {
                return;
            }
            if meta.progress.closed.load(Ordering::Relaxed) {
                self.metas.remove(stream);
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
            self.cancel_stalled_workers();
            thread::sleep(BACKPRESSURE_PAUSE);
        }
    }

    /// Live streams of `tenant`, after purging closed metas.
    fn tenant_open(&mut self, tenant: &str) -> usize {
        self.metas
            .retain(|_, meta| !meta.progress.closed.load(Ordering::Relaxed));
        self.metas
            .keys()
            .filter(|name| tenant_of(name) == tenant)
            .count()
    }

    /// Waits (bounded) for `tenant`'s in-flight closes to drop its live
    /// count below `limit`. Gives up at the deadline or when none of the
    /// tenant's streams is closing.
    fn await_closing_tenant(&mut self, tenant: &str, limit: usize) {
        let deadline = Instant::now() + self.ctx.options.stall_timeout.saturating_mul(2);
        loop {
            if self.tenant_open(tenant) < limit {
                return;
            }
            let closing = self
                .metas
                .iter()
                .any(|(name, meta)| tenant_of(name) == tenant && meta.closing);
            if !closing || Instant::now() >= deadline {
                return;
            }
            self.cancel_stalled_workers();
            thread::sleep(BACKPRESSURE_PAUSE);
        }
    }

    /// Waits (bounded) for in-flight closes to free admission slots below
    /// `limit`. Gives up at the deadline or when no close is in flight.
    fn await_closing_slots(&mut self, limit: usize) {
        let deadline = Instant::now() + self.ctx.options.stall_timeout.saturating_mul(2);
        loop {
            self.metas
                .retain(|_, meta| !meta.progress.closed.load(Ordering::Relaxed));
            if self.metas.len() < limit {
                return;
            }
            if !self.metas.values().any(|meta| meta.closing) {
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
            self.cancel_stalled_workers();
            thread::sleep(BACKPRESSURE_PAUSE);
        }
    }

    fn data(&mut self, stream: String, payload: String) {
        let target = match self.metas.get_mut(&stream) {
            Some(meta) if !meta.closing => {
                // Invariant: log before dispatch, so a lost task is always
                // covered by replay.
                meta.log.push(&payload);
                meta.logged += 1;
                meta.dirty = true;
                Some(meta.worker)
            }
            _ => None,
        };
        match target {
            Some(worker) => self.send(worker, Task::Data { stream, payload }),
            None => emit(self.ctx.output, &error_line(&stream, "data before open")),
        }
    }

    fn close(&mut self, stream: String) {
        let target = match self.metas.get_mut(&stream) {
            Some(meta) if !meta.closing => {
                meta.closing = true;
                meta.dirty = false;
                Some(meta.worker)
            }
            _ => None,
        };
        match target {
            Some(worker) => {
                // A closed stream must not be resurrected by recovery.
                if let Some(dir) = &self.ctx.options.state_dir {
                    let _ = std::fs::remove_file(state::stream_path(dir, &stream));
                }
                self.send(worker, Task::Close { stream });
            }
            None => emit(self.ctx.output, &error_line(&stream, "close before open")),
        }
    }

    /// Handles the `reload` verb: learns the new spec synchronously on the
    /// dispatcher (a control-plane pause, documented in the operations
    /// runbook) and swaps it in. In-flight streams stay pinned to their
    /// open-time clones; the retired model is reported once its last pinned
    /// stream closes.
    fn reload(&mut self, model: &str, spec: &str) {
        let parsed = match ModelSpec::parse(&format!("{model}={spec}")) {
            Ok(parsed) => parsed,
            Err(e) => {
                emit(self.ctx.output, &error_line(model, &e.to_string()));
                return;
            }
        };
        match self.registry.reload(&parsed) {
            Ok(version) => {
                if let Some(dir) = self.ctx.options.state_dir.clone() {
                    if let Err(e) = self.registry.persist(&dir) {
                        emit(
                            self.ctx.output,
                            &info_line(model, &format!("state persist failed: {e}")),
                        );
                    }
                }
                emit(
                    self.ctx.output,
                    &info_line(model, &format!("reloaded version={version}")),
                );
            }
            Err(e) => emit(self.ctx.output, &error_line(model, &e.to_string())),
        }
    }

    /// Restores every stream snapshot found in the state directory, called
    /// once before the input loop. A snapshot is resumed (`recovered`) only
    /// if it loads cleanly, its model is still served *at the same
    /// version*, and replaying its log rebuilds exactly the stored session
    /// checkpoint; anything else resets the stream (`reset`) and deletes
    /// the snapshot, so the client re-opens from scratch.
    pub(crate) fn recover(&mut self) {
        let Some(dir) = self.ctx.options.state_dir.clone() else {
            return;
        };
        let snapshots = match state::stream_snapshots(&dir) {
            Ok(snapshots) => snapshots,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(e) => {
                emit(
                    self.ctx.output,
                    &info_line("-", &format!("state directory unreadable: {e}")),
                );
                return;
            }
        };
        for (stream, path) in snapshots {
            let snapshot = match load_stream(&path) {
                Ok(snapshot) => snapshot,
                Err(e) => {
                    self.reset_stream(&stream, &path, &format!("snapshot rejected: {e}"));
                    continue;
                }
            };
            if snapshot.stream != stream {
                self.reset_stream(&stream, &path, "snapshot names a different stream");
                continue;
            }
            let Some((monitor, version)) = self.registry.resolve(&snapshot.model) else {
                self.reset_stream(
                    &stream,
                    &path,
                    &format!("model {:?} no longer served", snapshot.model),
                );
                continue;
            };
            if version != snapshot.version {
                self.reset_stream(
                    &stream,
                    &path,
                    &format!(
                        "model {:?} moved from version {} to {version}",
                        snapshot.model, snapshot.version
                    ),
                );
                continue;
            }
            let rebuilt =
                match verify_replay(&monitor, self.ctx.options.calibration_events, &snapshot.log) {
                    Ok(rebuilt) => rebuilt,
                    Err(reason) => {
                        self.reset_stream(&stream, &path, &format!("replay failed: {reason}"));
                        continue;
                    }
                };
            if snapshot.checkpoint.as_ref() != Some(&rebuilt) {
                self.reset_stream(&stream, &path, "replay diverged from the stored checkpoint");
                continue;
            }
            self.resume_stream(&stream, snapshot, monitor);
        }
    }

    /// Discards an unrecoverable snapshot: one `reset` line, file removed,
    /// stream not opened (the client must re-open from scratch).
    fn reset_stream(&mut self, stream: &str, path: &Path, reason: &str) {
        let _ = std::fs::remove_file(path);
        self.reset += 1;
        emit(self.ctx.output, &reset_line(stream, reason));
    }

    /// Re-opens a verified snapshot's stream: the dispatcher rebuilds its
    /// meta (replay log included) and feeds the snapshot's log through the
    /// normal open/replay machinery with every already-delivered verdict
    /// suppressed, so the worker's session lands exactly where the crash
    /// left it.
    fn resume_stream(&mut self, stream: &str, snapshot: StreamSnapshot, monitor: Monitor) {
        // The snapshot covered `seq` logged lines, one of which was the
        // header: the client had seen `seq - 1` verdicts.
        let delivered = snapshot.seq.saturating_sub(1);
        let worker = worker_for(stream, self.slots.len());
        let progress = Arc::new(StreamProgress::default());
        progress.emitted.store(delivered, Ordering::Relaxed);
        let mut log = ReplayLog::new(self.ctx.options.replay_budget);
        for line in &snapshot.log {
            log.push(line);
        }
        self.metas.insert(
            stream.to_string(),
            StreamMeta {
                model: snapshot.model,
                version: snapshot.version,
                monitor: monitor.clone(),
                worker,
                progress: Arc::clone(&progress),
                log,
                logged: snapshot.seq,
                dirty: false,
                closing: false,
            },
        );
        self.recovered += 1;
        emit(
            self.ctx.output,
            &recovered_line(stream, snapshot.seq, delivered),
        );
        self.send(
            worker,
            Task::Open {
                stream: stream.to_string(),
                monitor: Box::new(monitor),
                progress,
                suppress_through: delivered,
                already_failed: false,
            },
        );
        for payload in snapshot.log {
            self.send(
                worker,
                Task::Data {
                    stream: stream.to_string(),
                    payload,
                },
            );
        }
    }

    /// One checkpoint cycle: snapshots every dirty live stream (every live
    /// stream on the `finale` cycle before a graceful drain) to the state
    /// directory. Returns quietly when no state directory is configured.
    pub(crate) fn checkpoint(&mut self, finale: bool) {
        let Some(dir) = self.ctx.options.state_dir.clone() else {
            return;
        };
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let mut names: Vec<String> = self
            .metas
            .iter()
            .filter(|(_, meta)| {
                !meta.closing
                    && !meta.progress.closed.load(Ordering::Relaxed)
                    && (finale || meta.dirty)
            })
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        for name in names {
            if inject::checkpoint_interrupt() {
                // The in-process stand-in for `kill -9` mid-checkpoint:
                // streams snapshotted before this point are durable, the
                // rest are not, and the daemon stops as if crashed.
                self.aborted = true;
                return;
            }
            self.checkpoint_stream(&dir, &name);
        }
    }

    /// Snapshots one stream: asks its worker for a session image (a queued
    /// [`Task::Snapshot`], so the image covers exactly the logged data) and
    /// publishes it atomically. A stream that cannot be checkpointed any
    /// more (failed, or its replay log overflowed) has its stale snapshot
    /// removed instead, so a crash resets it rather than resuming it
    /// against state the daemon no longer holds.
    fn checkpoint_stream(&mut self, dir: &Path, name: &str) {
        let Some(meta) = self.metas.get(name) else {
            return;
        };
        if meta.progress.failed.load(Ordering::Relaxed) {
            let _ = std::fs::remove_file(state::stream_path(dir, name));
            if let Some(meta) = self.metas.get_mut(name) {
                meta.dirty = false;
            }
            return;
        }
        let Some(log) = meta.log.events().map(<[String]>::to_vec) else {
            let _ = std::fs::remove_file(state::stream_path(dir, name));
            if let Some(meta) = self.metas.get_mut(name) {
                meta.dirty = false;
            }
            return;
        };
        if log.is_empty() {
            // No header yet: nothing worth making durable.
            if let Some(meta) = self.metas.get_mut(name) {
                meta.dirty = false;
            }
            return;
        }
        let worker = meta.worker;
        let model = meta.model.clone();
        let version = meta.version;
        let logged = meta.logged;
        let slot = Arc::new(SnapshotSlot::default());
        self.send(
            worker,
            Task::Snapshot {
                stream: name.to_string(),
                slot: Arc::clone(&slot),
            },
        );
        let generation = self.slots.get(worker).map(|slot| slot.generation);
        let deadline = Instant::now() + self.ctx.options.stall_timeout.saturating_mul(2);
        let reply = loop {
            match slot.poll() {
                SnapshotReply::Pending => {}
                reply => break reply,
            }
            if Instant::now() >= deadline {
                break SnapshotReply::Pending;
            }
            self.cancel_stalled_workers();
            if self.slots.get(worker).map(|slot| slot.generation) != generation {
                // The worker was replaced; snapshot requests are not in the
                // replay log, so this one is simply lost. The stream stays
                // dirty and is retried next cycle.
                break SnapshotReply::Pending;
            }
            thread::sleep(BACKPRESSURE_PAUSE);
        };
        match reply {
            SnapshotReply::Pending => {}
            SnapshotReply::Gone => {
                let _ = std::fs::remove_file(state::stream_path(dir, name));
                if let Some(meta) = self.metas.get_mut(name) {
                    meta.dirty = false;
                }
            }
            SnapshotReply::Image {
                events,
                failed,
                checkpoint,
            } => {
                if failed {
                    let _ = std::fs::remove_file(state::stream_path(dir, name));
                    if let Some(meta) = self.metas.get_mut(name) {
                        meta.dirty = false;
                    }
                    return;
                }
                if events + 1 != logged {
                    // The image does not cover the full log (a replay was
                    // in flight); leave the stream dirty and retry.
                    return;
                }
                let snapshot = StreamSnapshot {
                    stream: name.to_string(),
                    model,
                    version,
                    seq: logged,
                    log,
                    checkpoint,
                };
                match save_stream(&state::stream_path(dir, name), &snapshot) {
                    Ok(()) => {
                        if let Some(meta) = self.metas.get_mut(name) {
                            meta.dirty = false;
                        }
                        self.checkpoints += 1;
                    }
                    Err(e) => {
                        // Publication is atomic: the previous snapshot (if
                        // any) is intact, and the stream stays dirty.
                        emit(
                            self.ctx.output,
                            &info_line(name, &format!("checkpoint failed: {e}")),
                        );
                    }
                }
            }
        }
    }

    /// Begins a graceful drain: new `open`s are refused with
    /// `busy <stream> draining` until input ends.
    pub(crate) fn start_draining(&mut self) {
        self.draining = true;
    }

    /// Delivers one task with bounded-queue backpressure. The retry loop
    /// doubles as a watchdog tick: while the queue is full the supervisor
    /// keeps checking for stalled workers, and a restart that replaces the
    /// target (its streams are replayed by the new incarnation, log
    /// included) ends the wait.
    fn send(&mut self, worker: usize, task: Task) {
        let mut task = task;
        loop {
            let Some(generation) = self.slots.get(worker).map(|slot| slot.generation) else {
                return;
            };
            let result = match self.slots.get(worker).and_then(|slot| slot.sender.as_ref()) {
                Some(sender) => sender.try_send(task),
                None => return,
            };
            match result {
                Ok(()) => {
                    if let Some(slot) = self.slots.get_mut(worker) {
                        slot.dispatched += 1;
                    }
                    return;
                }
                Err(TrySendError::Full(returned)) => {
                    task = returned;
                    thread::sleep(BACKPRESSURE_PAUSE);
                    self.cancel_stalled_workers();
                    if self.slots.get(worker).map(|slot| slot.generation) != Some(generation) {
                        // The worker was replaced; the replacement replays
                        // this task's stream from its log, in order.
                        return;
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    // The worker died between watchdog ticks. The lost task
                    // is covered by the replay log the restart consumes.
                    self.restart_worker(worker);
                    return;
                }
            }
        }
    }

    /// The watchdog: condemns workers that died (their thread finished
    /// while work was still routed to them) or stalled (behind on their
    /// queue with no forward progress for `stall_timeout`), and replaces
    /// each with a fresh incarnation fed from the replay logs.
    fn cancel_stalled_workers(&mut self) {
        if self.restarting {
            return;
        }
        let stall = self.ctx.options.stall_timeout;
        let now = Instant::now();
        let mut condemned: Vec<usize> = Vec::new();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            let Some(handle) = slot.handle.as_ref() else {
                continue;
            };
            if handle.is_finished() {
                // A healthy worker only exits after its channel closes; a
                // finished thread with a live sender means it panicked.
                if slot.sender.is_some() {
                    condemned.push(index);
                }
                continue;
            }
            let completed = slot.completed.load(Ordering::Relaxed);
            if completed >= slot.dispatched || completed != slot.last_completed {
                slot.last_completed = completed;
                slot.stalled_since = None;
                continue;
            }
            match slot.stalled_since {
                None => slot.stalled_since = Some(now),
                Some(since) => {
                    if now.duration_since(since) >= stall {
                        condemned.push(index);
                    }
                }
            }
        }
        for index in condemned {
            self.restart_worker(index);
        }
    }

    /// Replaces the worker at `index` with a fresh incarnation and replays
    /// every resident stream into it. Replayable streams continue exactly
    /// where their delivered output left off; streams whose log overflowed
    /// are sacrificed with an `error` line.
    fn restart_worker(&mut self, index: usize) {
        if self.restarting {
            return;
        }
        self.restarting = true;
        let old_handle = match self.slots.get_mut(index) {
            Some(slot) => {
                slot.cancel.store(true, Ordering::Relaxed);
                slot.sender = None;
                slot.handle.take()
            }
            None => {
                self.restarting = false;
                return;
            }
        };
        match old_handle {
            Some(handle) if handle.is_finished() => {
                // The panic payload already did its damage; the join result
                // is not news.
                let _ = handle.join();
            }
            Some(handle) => {
                // Condemned but still running (a stall): it exits at its
                // next cancellation poll and is joined during shutdown.
                self.retired.push(handle);
            }
            None => {}
        }
        let replacement = self.spawn_slot();
        if let Some(slot) = self.slots.get_mut(index) {
            let generation = slot.generation + 1;
            *slot = replacement;
            slot.generation = generation;
        }
        self.restarted += 1;
        emit(
            self.ctx.output,
            &info_line("-", &format!("worker {index} restarted")),
        );
        self.reattach(index);
        self.restarting = false;
    }

    /// Re-sends every live stream routed to `worker` into its fresh
    /// incarnation, in sorted name order for determinism. Each stream
    /// reattaches with the monitor clone it was pinned to at open time, so
    /// a reload between open and restart never changes its model.
    fn reattach(&mut self, worker: usize) {
        let mut names: Vec<String> = self
            .metas
            .iter()
            .filter(|(_, meta)| {
                meta.worker == worker && !meta.progress.closed.load(Ordering::Relaxed)
            })
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        for name in names {
            let Some(meta) = self.metas.get(&name) else {
                continue;
            };
            let payloads = meta.log.events().map(<[String]>::to_vec);
            let progress = Arc::clone(&meta.progress);
            let monitor = meta.monitor.clone();
            let closing = meta.closing;
            match payloads {
                Some(payloads) => {
                    let emitted = progress.emitted.load(Ordering::Relaxed);
                    let already_failed = progress.failed.load(Ordering::Relaxed);
                    self.replayed += payloads.len();
                    emit(
                        self.ctx.output,
                        &info_line(
                            &name,
                            &format!("replayed {} records after worker loss", payloads.len()),
                        ),
                    );
                    self.send(
                        worker,
                        Task::Open {
                            stream: name.clone(),
                            monitor: Box::new(monitor),
                            progress,
                            suppress_through: emitted,
                            already_failed,
                        },
                    );
                    for payload in payloads {
                        self.send(
                            worker,
                            Task::Data {
                                stream: name.clone(),
                                payload,
                            },
                        );
                    }
                    if closing {
                        self.send(
                            worker,
                            Task::Close {
                                stream: name.clone(),
                            },
                        );
                    }
                }
                None => {
                    // The replay log overflowed (or replay is disabled):
                    // the stream cannot be reconstructed. Sacrifice it.
                    progress.closed.store(true, Ordering::Relaxed);
                    self.ctx.totals.streams.fetch_add(1, Ordering::Relaxed);
                    self.ctx.totals.events.fetch_add(
                        progress.emitted.load(Ordering::Relaxed) as usize,
                        Ordering::Relaxed,
                    );
                    self.ctx.totals.failed.fetch_add(1, Ordering::Relaxed);
                    if !progress.failed.swap(true, Ordering::Relaxed) {
                        emit(
                            self.ctx.output,
                            &error_line(
                                &name,
                                "worker lost and replay log exhausted; stream dropped",
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Deadline-bounded shutdown: closes the worker queues, lets workers
    /// drain and close their resident streams, restarts any worker that
    /// panics on the way out (so its streams still reach their summaries),
    /// and past the deadline condemns whatever is left. Streams that never
    /// reached close are accounted as failed — but keep their snapshot, so
    /// a restart with the same state directory recovers them.
    fn drain(&mut self) {
        if self.aborted {
            // An injected mid-checkpoint "kill": stop every worker at its
            // next poll and vanish without summaries, error lines or any
            // further durability work — exactly what SIGKILL would leave.
            for slot in self.slots.iter_mut() {
                slot.cancel.store(true, Ordering::Relaxed);
                slot.sender = None;
            }
            for slot in self.slots.iter_mut() {
                if let Some(handle) = slot.handle.take() {
                    let _ = handle.join();
                }
            }
            for handle in self.retired.drain(..) {
                let _ = handle.join();
            }
            return;
        }
        let deadline = Instant::now() + self.ctx.options.drain_timeout;
        loop {
            // No more input: a closed channel is the shutdown signal. A
            // restart inside this loop re-creates a sender just long enough
            // to replay; the next pass closes it again.
            for slot in self.slots.iter_mut() {
                slot.sender = None;
            }
            self.cancel_stalled_workers();
            for slot in self.slots.iter_mut() {
                slot.sender = None;
            }

            let mut pending = false;
            for index in 0..self.slots.len() {
                let finished = match self.slots.get(index).and_then(|slot| slot.handle.as_ref()) {
                    Some(handle) => handle.is_finished(),
                    None => continue,
                };
                if !finished {
                    pending = true;
                    continue;
                }
                let handle = self
                    .slots
                    .get_mut(index)
                    .and_then(|slot| slot.handle.take());
                let Some(handle) = handle else { continue };
                if handle.join().is_err() {
                    // The worker panicked while draining; replace it so its
                    // streams still reach their summaries.
                    self.restart_worker(index);
                    pending = true;
                }
            }

            let mut still_running = Vec::new();
            for handle in self.retired.drain(..) {
                if handle.is_finished() {
                    let _ = handle.join();
                } else {
                    still_running.push(handle);
                }
            }
            self.retired = still_running;

            if !pending && self.retired.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                // Past the deadline: condemn everything still running.
                // Cancelled workers exit at their next poll without closing
                // their streams, which are accounted as lost below.
                for slot in self.slots.iter_mut() {
                    slot.cancel.store(true, Ordering::Relaxed);
                }
                break;
            }
            thread::sleep(BACKPRESSURE_PAUSE);
        }
        for slot in self.slots.iter_mut() {
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
        for handle in self.retired.drain(..) {
            let _ = handle.join();
        }
        // Streams that reached their close are finished business: their
        // snapshots must not be resurrected by the next start. Streams that
        // did not keep theirs — that is the crash-recovery path.
        if let Some(dir) = &self.ctx.options.state_dir {
            for (name, meta) in &self.metas {
                if meta.progress.closed.load(Ordering::Relaxed) {
                    let _ = std::fs::remove_file(state::stream_path(dir, name));
                }
            }
        }
        // Any stream that never reached close lost its worker for good.
        let mut lost: Vec<(String, Arc<StreamProgress>)> = self
            .metas
            .iter()
            .filter(|(_, meta)| !meta.progress.closed.load(Ordering::Relaxed))
            .map(|(name, meta)| (name.clone(), Arc::clone(&meta.progress)))
            .collect();
        lost.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, progress) in lost {
            self.ctx.totals.streams.fetch_add(1, Ordering::Relaxed);
            self.ctx.totals.events.fetch_add(
                progress.emitted.load(Ordering::Relaxed) as usize,
                Ordering::Relaxed,
            );
            self.ctx.totals.failed.fetch_add(1, Ordering::Relaxed);
            if !progress.failed.swap(true, Ordering::Relaxed) {
                emit(
                    self.ctx.output,
                    &error_line(&name, "stream lost in shutdown"),
                );
            }
        }
    }

    /// Drains the pool and returns the supervisor's counters.
    pub(crate) fn shutdown(mut self) -> MuxStats {
        self.drain();
        MuxStats {
            shed: self.shed,
            restarted: self.restarted,
            replayed: self.replayed,
            recovered: self.recovered,
            reset: self.reset,
            checkpoints: self.checkpoints,
            tenant_shed: std::mem::take(&mut self.tenant_shed),
            shed_latency: std::mem::take(&mut self.shed_latency),
            aborted: self.aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tenant_of;

    #[test]
    fn tenants_are_the_prefix_before_the_first_slash() {
        assert_eq!(tenant_of("acme/stream-1"), "acme");
        assert_eq!(tenant_of("acme/region/s"), "acme");
        assert_eq!(tenant_of("loner"), "loner");
        assert_eq!(tenant_of("/odd"), "");
    }
}
