//! The end-to-end learner: Algorithm 1 of the paper, over one trace, many
//! traces, or a stream.
//!
//! Three entry points feed one pipeline:
//!
//! * [`Learner::learn`] — the paper's single in-memory trace;
//! * [`Learner::learn_many`] — a [`TraceSet`] of recorded runs: predicate
//!   windows are extracted *per trace* (never spanning a trace boundary) and
//!   merged into one SAT instance over a shared alphabet;
//! * [`Learner::learn_streamed`] — a [`StreamingCsvReader`]: observation
//!   ids are consumed in bounded chunks, so only the chunk, the distinct
//!   observations and windows (few, by the paper's key insight) and the
//!   window-id sequence stay resident — the raw trace never does.
//!
//! The in-memory entry points differ only in calibration and share one
//! extraction body over shard slices; all three then segment the predicate
//! sequences and run the same search.
//!
//! # Search
//!
//! Candidate state counts are tried in ascending order from
//! [`LearnerConfig::initial_states`], exactly as in the paper. Each count
//! gets one incremental solver: its base encoding is loaded once, and every
//! compliance-refinement round adds only the delta clauses of the newly
//! forbidden sequences, so learnt clauses survive across rounds. Forbidden
//! sequences are properties of the input, so a refuted count hands them on
//! to the next count's base encoding. The first compliant count is the
//! smallest one.

use crate::compliance::ComplianceChecker;
use crate::encoding::AutomatonEncoder;
use crate::error::LearnError;
use crate::predicates::{PredId, PredicateAlphabet, WindowAbstractor};
use std::collections::HashMap;
use std::io::BufRead;
use std::time::{Duration, Instant};
use tracelearn_automaton::Nfa;
use tracelearn_sat::{Limits, SatResult, Solver};
use tracelearn_synth::SynthesisConfig;
use tracelearn_trace::{
    IdBuildHasher, Signature, StreamingCsvReader, SymbolTable, Trace, TraceError, TraceSet,
    Valuation, WindowCollector,
};

/// Smallest calibration sample for streamed learning: enough observations to
/// harvest synthesis constants, detect input variables and score dominant
/// updates even when the caller configures a tiny chunk or sample size.
const MIN_STREAM_CALIBRATION: usize = 4096;

/// Observations per reservoir block (at least the window length): the
/// streamed calibration reservoir samples the stream in contiguous blocks so
/// that observation *pairs and triples* — what calibration actually consumes
/// — survive sampling intact.
const RESERVOIR_BLOCK: usize = 32;

/// Fixed seed of the calibration reservoir's PRNG: sampling is deterministic
/// so repeated runs over the same stream learn the same model.
const RESERVOIR_SEED: u64 = 0xDAC2020;

/// Configuration of the learner (the tunable parameters of Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnerConfig {
    /// Sliding-window length `w` (for both predicate generation and
    /// segmentation of the predicate sequence). The paper fixes `w = 3`.
    pub window: usize,
    /// Compliance-check path length `l`. The paper uses `l = 2`.
    pub compliance_length: usize,
    /// Number of automaton states to start the search from (the paper starts
    /// at 2, or at the known target size for the Table I timing runs).
    pub initial_states: usize,
    /// Upper bound on the number of automaton states before giving up.
    pub max_states: usize,
    /// Whether to segment the predicate sequence into unique windows
    /// (the paper's scalability mechanism) or to feed the whole sequence to
    /// the solver as one path ("Full Trace" in Table I).
    pub segmented: bool,
    /// Maximum number of compliance-refinement rounds per state count.
    pub max_refinements: usize,
    /// Conflict budget per SAT call; `None` means unlimited.
    pub max_conflicts: Option<u64>,
    /// Upper bound on the (estimated) clause count of a single encoding;
    /// larger instances are reported as budget exhaustion. This is what makes
    /// the non-segmented runs on very long traces "time out" cleanly instead
    /// of exhausting memory.
    pub max_clauses: usize,
    /// Wall-clock budget for the whole learning run; `None` means unlimited.
    pub time_budget: Option<Duration>,
    /// Configuration of the predicate synthesiser.
    pub synthesis: SynthesisConfig,
    /// Names of variables to treat as unconstrained inputs (no update atoms),
    /// in addition to the automatically detected ones.
    pub input_variables: Vec<String>,
    /// Number of observations [`Learner::learn_streamed`] reads per chunk —
    /// the bound on the resident raw-observation count of the streaming
    /// sweep (plus a `w − 1` overlap carry and the calibration reservoir,
    /// see [`calibration_sample`](LearnerConfig::calibration_sample)).
    pub stream_chunk: usize,
    /// Upper bound on the observations [`Learner::learn_streamed`] retains
    /// for calibration. The calibration reservoir samples contiguous blocks
    /// uniformly over the **whole** stream (not just a prefix), so
    /// integer-heavy traces whose behaviour changes late still calibrate
    /// correctly; streams that fit entirely within the sample are calibrated
    /// exactly like the in-memory path. The effective bound is at least
    /// `max(stream_chunk, 4096)`.
    pub calibration_sample: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            window: 3,
            compliance_length: 2,
            initial_states: 2,
            max_states: 16,
            segmented: true,
            max_refinements: 200,
            max_conflicts: Some(2_000_000),
            max_clauses: 40_000_000,
            time_budget: None,
            synthesis: SynthesisConfig::default(),
            input_variables: Vec::new(),
            stream_chunk: 65_536,
            calibration_sample: 65_536,
        }
    }
}

impl LearnerConfig {
    /// A configuration with segmentation disabled ("Full Trace" mode).
    pub fn non_segmented() -> Self {
        LearnerConfig {
            segmented: false,
            ..LearnerConfig::default()
        }
    }

    /// Sets the sliding-window length `w`.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the compliance path length `l`.
    pub fn with_compliance_length(mut self, l: usize) -> Self {
        self.compliance_length = l;
        self
    }

    /// Sets the initial number of states for the search.
    pub fn with_initial_states(mut self, n: usize) -> Self {
        self.initial_states = n.max(1);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Declares a variable as an unconstrained input.
    pub fn with_input_variable(mut self, name: impl Into<String>) -> Self {
        self.input_variables.push(name.into());
        self
    }

    /// Sets the streamed-ingestion chunk size (observations per read).
    pub fn with_stream_chunk(mut self, observations: usize) -> Self {
        self.stream_chunk = observations;
        self
    }

    /// Sets the streamed-calibration sample bound (observations).
    pub fn with_calibration_sample(mut self, observations: usize) -> Self {
        self.calibration_sample = observations;
        self
    }
}

/// Statistics of a learning run, reported alongside the model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LearnStats {
    /// Total number of observations across all input traces.
    pub trace_length: usize,
    /// Length of the predicate sequence `P`, summed over traces.
    pub predicate_count: usize,
    /// Number of distinct predicates (alphabet size).
    pub alphabet_size: usize,
    /// Number of windows handed to the solver (after deduplication when
    /// segmentation is on).
    pub solver_windows: usize,
    /// Number of input traces (shards).
    pub shards: usize,
    /// Unique windows *newly contributed* by each shard, in input order:
    /// shard `i`'s count excludes windows already seen in shards `0..i`.
    pub shard_windows: Vec<usize>,
    /// Largest number of observations resident at once, decoded or as
    /// ids. Equals `trace_length` for the in-memory paths; for
    /// [`Learner::learn_streamed`] it counts the rolling chunk of
    /// observation ids, the calibration reservoir's ids, the ids of the
    /// interned distinct windows and the distinct observations the reader
    /// decoded (the last two small by the paper's key insight).
    pub peak_resident_observations: usize,
    /// Number of SAT queries issued.
    pub sat_queries: usize,
    /// Number of solvers constructed: exactly one per candidate state count
    /// tried.
    pub solvers_constructed: usize,
    /// Learnt clauses carried into repeat queries on a reused solver, summed
    /// over all queries after the first at each state count.
    pub reused_learnt_clauses: u64,
    /// Literals the solver's conflict-clause minimization removed from learnt
    /// clauses before attachment, summed over all solvers.
    pub minimized_literals: u64,
    /// Histogram of learnt-clause LBD ("glue") values over all solvers:
    /// bucket `i` counts clauses learnt with glue `i + 1`; the last bucket
    /// aggregates glue ≥ [`tracelearn_sat::LBD_BUCKETS`].
    pub lbd_histogram: [u64; tracelearn_sat::LBD_BUCKETS],
    /// Number of compliance-refinement rounds performed.
    pub refinements: usize,
    /// Number of states of the learned automaton.
    pub states: usize,
    /// Always 0: the learner tries state counts one at a time and solves
    /// none ahead. The field stays so that the model snapshot layout and
    /// tools reading these statistics keep their shape.
    pub speculative_solves: usize,
    /// Always 0, for the same reason as
    /// [`speculative_solves`](LearnStats::speculative_solves): no solve is
    /// ever cancelled.
    pub cancelled_solves: usize,
    /// Wall-clock time spent ingesting the raw stream
    /// ([`Learner::learn_streamed`] only; the in-memory paths report zero).
    pub ingest_time: Duration,
    /// Wall-clock time spent generating predicates (calibration plus window
    /// abstraction).
    pub synthesis_time: Duration,
    /// Wall-clock time spent merging predicate sequences into the unique
    /// solver windows, and building the compliance oracle from them.
    pub segmentation_time: Duration,
    /// Wall-clock time spent in the SAT search and its compliance-refinement
    /// rounds.
    pub solver_time: Duration,
    /// Total wall-clock time.
    pub total_time: Duration,
}

impl LearnStats {
    /// Folds one solver's minimization and glue counters into the run totals.
    fn absorb_solver_counters(
        &mut self,
        minimized_literals: u64,
        lbd_histogram: &[u64; tracelearn_sat::LBD_BUCKETS],
    ) {
        self.minimized_literals += minimized_literals;
        for (total, &bucket) in self.lbd_histogram.iter_mut().zip(lbd_histogram) {
            *total += bucket;
        }
    }
}

/// The result of a successful learning run.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    automaton: Nfa<PredId>,
    alphabet: PredicateAlphabet,
    signature: Signature,
    symbols: SymbolTable,
    /// One predicate sequence per input trace (a single entry for
    /// [`Learner::learn`] and [`Learner::learn_streamed`]).
    sequences: Vec<Vec<PredId>>,
    stats: LearnStats,
}

impl LearnedModel {
    /// The learned automaton over predicate ids.
    pub fn automaton(&self) -> &Nfa<PredId> {
        &self.automaton
    }

    /// The predicate alphabet of the automaton.
    pub fn alphabet(&self) -> &PredicateAlphabet {
        &self.alphabet
    }

    /// The predicate sequence `P` of the first (or only) input trace.
    pub fn predicate_sequence(&self) -> &[PredId] {
        &self.sequences[0]
    }

    /// The signature of the traces the model was learned from. A fresh
    /// stream monitored against this model must use the same signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The event names interned while learning, used to render the model's
    /// own predicates canonically.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The predicate sequences of all input traces, in input order.
    pub fn predicate_sequences(&self) -> &[Vec<PredId>] {
        &self.sequences
    }

    /// Statistics of the learning run.
    pub fn stats(&self) -> LearnStats {
        self.stats.clone()
    }

    /// Number of states of the learned model.
    pub fn num_states(&self) -> usize {
        self.automaton.num_states()
    }

    /// Number of transitions of the learned model.
    pub fn num_transitions(&self) -> usize {
        self.automaton.num_transitions()
    }

    /// The learned automaton with human-readable predicate strings as labels.
    pub fn rendered_automaton(&self) -> Nfa<String> {
        self.automaton
            .map_labels(|id| self.alphabet.render(*id, &self.signature, &self.symbols))
    }

    /// Every predicate of the alphabet, rendered.
    pub fn predicate_strings(&self) -> Vec<String> {
        self.alphabet
            .iter()
            .map(|(id, _)| self.alphabet.render(id, &self.signature, &self.symbols))
            .collect()
    }

    /// Graphviz rendering of the model (the paper's figures).
    pub fn to_dot(&self, name: &str) -> String {
        self.rendered_automaton().to_dot(name)
    }

    /// Reassembles a model from its constituent parts — the decode half of
    /// the `tracelearn-persist` model snapshot codec.
    ///
    /// The parts are validated for internal consistency so a decoded
    /// snapshot can never produce a model the learner could not have: every
    /// transition label and every sequence entry must name a predicate of
    /// `alphabet`, and at least one predicate sequence must be present
    /// (monitoring reads `sequences[0]`).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::InvalidConfig`] describing the first
    /// inconsistency found.
    pub fn from_parts(
        automaton: Nfa<PredId>,
        alphabet: PredicateAlphabet,
        signature: Signature,
        symbols: SymbolTable,
        sequences: Vec<Vec<PredId>>,
        stats: LearnStats,
    ) -> Result<LearnedModel, LearnError> {
        let in_alphabet = |id: &PredId| id.index() < alphabet.len();
        if let Some(t) = automaton
            .transitions()
            .iter()
            .find(|t| !in_alphabet(&t.label))
        {
            return Err(LearnError::InvalidConfig {
                reason: format!(
                    "transition label {} is outside the {}-predicate alphabet",
                    t.label.index(),
                    alphabet.len()
                ),
            });
        }
        if sequences.is_empty() {
            return Err(LearnError::InvalidConfig {
                reason: "a model needs at least one predicate sequence".to_owned(),
            });
        }
        if let Some(id) = sequences.iter().flatten().find(|id| !in_alphabet(id)) {
            return Err(LearnError::InvalidConfig {
                reason: format!(
                    "sequence entry {} is outside the {}-predicate alphabet",
                    id.index(),
                    alphabet.len()
                ),
            });
        }
        Ok(LearnedModel {
            automaton,
            alphabet,
            signature,
            symbols,
            sequences,
            stats,
        })
    }
}

/// Deterministic block-level reservoir sample over a stream of observations
/// (or of their ids).
///
/// The stream is split into consecutive blocks of `block_len` observations
/// and up to `capacity` blocks are retained, each block surviving with equal
/// probability (Algorithm R at block granularity, driven by a fixed-seed
/// PRNG). Sampling whole blocks — rather than single observations — keeps
/// the observation *pairs and triples* that calibration consumes intact.
/// Blocks that will not be retained are never materialised.
struct BlockReservoir<T> {
    block_len: usize,
    capacity: usize,
    kept: Vec<(usize, Vec<T>)>,
    current: Vec<T>,
    /// Destination of the block being filled: `None` while undecided (block
    /// empty), `Some(None)` = skip, `Some(Some(slot))` = keep.
    destination: Option<Option<usize>>,
    fill: usize,
    seen_blocks: usize,
    rng: u64,
}

impl<T: Clone> BlockReservoir<T> {
    fn new(block_len: usize, capacity: usize) -> Self {
        BlockReservoir {
            block_len: block_len.max(1),
            capacity: capacity.max(1),
            kept: Vec::new(),
            current: Vec::new(),
            destination: None,
            fill: 0,
            seen_blocks: 0,
            rng: RESERVOIR_SEED,
        }
    }

    /// SplitMix64: deterministic, seedable, and plenty uniform for sampling.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn push(&mut self, observation: &T) {
        if self.destination.is_none() {
            // Decide this block's fate up front so skipped blocks cost no
            // clones: block `j` survives with probability `capacity / (j+1)`.
            let j = self.seen_blocks;
            self.destination = Some(if self.kept.len() < self.capacity {
                Some(self.kept.len())
            } else {
                let r = usize::try_from(self.next_rand() % (j as u64 + 1))
                    .expect("slot index fits in usize");
                (r < self.capacity).then_some(r)
            });
        }
        if matches!(self.destination, Some(Some(_))) {
            self.current.push(observation.clone());
        }
        self.fill += 1;
        if self.fill == self.block_len {
            self.commit();
        }
    }

    fn commit(&mut self) {
        let j = self.seen_blocks;
        self.seen_blocks += 1;
        self.fill = 0;
        if let Some(Some(slot)) = self.destination.take() {
            let block = std::mem::take(&mut self.current);
            if slot == self.kept.len() {
                self.kept.push((j, block));
            } else {
                self.kept[slot] = (j, block);
            }
        }
    }

    /// Observations currently resident in the reservoir.
    fn resident_observations(&self) -> usize {
        self.kept.iter().map(|(_, b)| b.len()).sum::<usize>() + self.current.len()
    }

    /// Finishes the stream, returning the sampled blocks in stream order and
    /// whether they are the *complete* stream (every block retained — the
    /// blocks then reassemble into the exact input).
    fn finish(mut self) -> (Vec<Vec<T>>, bool) {
        if self.fill > 0 {
            self.commit();
        }
        let complete = self.kept.len() == self.seen_blocks;
        self.kept.sort_by_key(|(index, _)| *index);
        (
            self.kept.into_iter().map(|(_, block)| block).collect(),
            complete,
        )
    }
}

/// How many distinct windows [`Learner::learn_streamed`] abstracts between
/// wall-clock budget checks.
const ABSTRACTION_CHECK_INTERVAL: usize = 64;

/// The model learner (Algorithm 1 of the paper).
#[derive(Debug, Clone, Default)]
pub struct Learner {
    config: LearnerConfig,
}

impl Learner {
    /// Creates a learner with the given configuration.
    pub fn new(config: LearnerConfig) -> Self {
        Learner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Learns an automaton from a trace.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::TraceTooShort`] / [`LearnError::WindowTooSmall`]
    /// for unusable inputs, [`LearnError::NoAutomaton`] when no automaton
    /// within the state bound satisfies the constraints, and
    /// [`LearnError::BudgetExhausted`] when a resource budget runs out (the
    /// "timeout" rows of the paper's Table I).
    pub fn learn(&self, trace: &Trace) -> Result<LearnedModel, LearnError> {
        let start = Instant::now();
        self.validate_config()?;
        let config = &self.config;
        let abstractor = WindowAbstractor::from_calibration(
            trace,
            config.window,
            config.synthesis.clone(),
            &config.input_variables,
        )?;
        self.learn_shards(
            abstractor,
            &[trace.observations()],
            trace.signature().clone(),
            trace.symbols().clone(),
            start,
        )
    }

    /// Learns one automaton from many traces of the same system.
    ///
    /// Predicate windows are extracted per trace — no window ever spans a
    /// trace boundary — and merged (deduplicated) before the SAT search; the
    /// compliance oracle likewise admits a length-`l` behaviour when *some*
    /// input trace exhibits it. One [`WindowAbstractor`] — calibrated over
    /// every run, with observation pairs never straddling a boundary (see
    /// [`WindowAbstractor::from_calibration_set`]) — serves all shards, and
    /// with the set's shared symbol table guarantees that identical window
    /// content in different shards maps to the identical predicate id.
    ///
    /// # Errors
    ///
    /// As for [`Learner::learn`]; an empty set reports
    /// [`LearnError::Trace`] with [`TraceError::EmptyTrace`], and every
    /// shard must individually satisfy the window-length requirement.
    pub fn learn_many(&self, set: &TraceSet) -> Result<LearnedModel, LearnError> {
        let start = Instant::now();
        self.validate_config()?;
        let config = &self.config;
        if set.is_empty() {
            return Err(LearnError::Trace(TraceError::EmptyTrace));
        }
        let abstractor = WindowAbstractor::from_calibration_set(
            set,
            config.window,
            config.synthesis.clone(),
            &config.input_variables,
        )?;
        let shards: Vec<&[Valuation]> = set.iter().collect();
        self.learn_shards(
            abstractor,
            &shards,
            set.signature().clone(),
            set.symbols().clone(),
            start,
        )
    }

    /// The extraction body of the in-memory entry points: maps every window
    /// of every shard to its predicate through the calibrated `abstractor`,
    /// interning into one alphabet in input order, then segments and
    /// solves. Every shard holds at least `w` observations (calibration
    /// checked it).
    fn learn_shards(
        &self,
        mut abstractor: WindowAbstractor,
        shards: &[&[Valuation]],
        signature: Signature,
        symbols: SymbolTable,
        start: Instant,
    ) -> Result<LearnedModel, LearnError> {
        let w = self.config.window;
        let mut alphabet = PredicateAlphabet::new();
        let sequences: Vec<Vec<PredId>> = shards
            .iter()
            .map(|shard| {
                shard
                    .windows(w)
                    .map(|window| abstractor.predicate_id(window, &mut alphabet))
                    .collect()
            })
            .collect();
        let trace_length = shards.iter().map(|shard| shard.len()).sum();
        let stats = LearnStats {
            trace_length,
            shards: shards.len(),
            peak_resident_observations: trace_length,
            synthesis_time: start.elapsed(),
            ..LearnStats::default()
        };
        self.segment_and_solve(sequences, alphabet, signature, symbols, stats, start)
    }

    /// Learns an automaton from a CSV stream without materialising the
    /// trace.
    ///
    /// The stream is swept exactly once, in chunks of
    /// [`stream_chunk`](LearnerConfig::stream_chunk), by observation id (see
    /// [`StreamingCsvReader::next_observation_id`]): a repeated record costs
    /// one hash of its bytes, and only the distinct records are decoded.
    /// Windows of ids are interned on the fly (few, by the paper's key
    /// insight), the per-observation window-id sequence is recorded (4 bytes
    /// each), and a block reservoir samples the ids of up to
    /// [`calibration_sample`](LearnerConfig::calibration_sample)
    /// observations **uniformly over the whole stream** for calibration
    /// (constant harvesting, input detection, dominant updates) — so late
    /// behaviour changes are represented, unlike a prefix sample. After the
    /// sweep, observations are rebuilt only for the sampled blocks and the
    /// distinct windows; each distinct window is abstracted once and
    /// interned in first-occurrence order, and the window-id sequence
    /// becomes the predicate sequence in place.
    ///
    /// Streams that fit entirely within the calibration sample are
    /// calibrated on the exact input, making the result identical to
    /// [`Learner::learn`] on the materialised trace; larger integer-heavy
    /// streams match whenever the sampled blocks exhibit the trace's integer
    /// behaviour (event/boolean-only traces always match).
    ///
    /// # Errors
    ///
    /// As for [`Learner::learn`], plus [`LearnError::Trace`] for parse/I/O
    /// failures of the stream.
    pub fn learn_streamed<R: BufRead>(
        &self,
        mut reader: StreamingCsvReader<R>,
    ) -> Result<LearnedModel, LearnError> {
        let start = Instant::now();
        self.validate_config()?;
        let config = &self.config;
        let w = config.window;
        let chunk_size = config.stream_chunk.max(w);

        // Pass 1: one streaming sweep over observation ids — intern distinct
        // windows of ids, record the window-id sequence, and
        // reservoir-sample calibration blocks uniformly over the whole
        // stream.
        let block_len = w.max(RESERVOIR_BLOCK);
        let capacity_observations = config
            .calibration_sample
            .max(chunk_size)
            .max(MIN_STREAM_CALIBRATION);
        let capacity_blocks = capacity_observations.div_ceil(block_len);
        let mut reservoir = BlockReservoir::new(block_len, capacity_blocks);
        let mut window_ids: HashMap<Box<[u32]>, u32, IdBuildHasher> = HashMap::default();
        // The distinct windows' ids back to back, in window-id order.
        let mut distinct_windows: Vec<u32> = Vec::new();
        let mut wid_sequence: Vec<u32> = Vec::new();
        let mut buffer: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut total_observations = 0usize;
        let mut peak_resident = 0usize;
        loop {
            self.check_time(start)?;
            if reader.read_chunk_ids(chunk_size, &mut scratch)? == 0 {
                break;
            }
            total_observations += scratch.len();
            for id in &scratch {
                reservoir.push(id);
            }
            buffer.extend_from_slice(&scratch);
            for window in buffer.windows(w) {
                let id = match window_ids.get(window) {
                    Some(&id) => id,
                    None => {
                        let id = u32::try_from(window_ids.len()).map_err(|_| {
                            LearnError::BudgetExhausted {
                                resource: "more distinct windows than 32-bit ids can number"
                                    .to_owned(),
                            }
                        })?;
                        window_ids.insert(window.into(), id);
                        distinct_windows.extend_from_slice(window);
                        id
                    }
                };
                wid_sequence.push(id);
            }
            // Measured at the chunk's high-water mark: the rolling buffer,
            // the calibration reservoir, the distinct windows and the
            // distinct observations the reader decoded.
            peak_resident = peak_resident.max(
                buffer.len()
                    + reservoir.resident_observations()
                    + distinct_windows.len()
                    + reader.distinct_observations().len(),
            );
            buffer.drain(..buffer.len().saturating_sub(w - 1));
        }
        if total_observations < w {
            return Err(LearnError::TraceTooShort {
                trace_length: total_observations,
                window: w,
            });
        }
        drop(window_ids);
        let ingest_time = start.elapsed();

        // Observations are rebuilt from their ids only for the sampled
        // blocks and the distinct windows.
        self.check_time(start)?;
        let observations = |ids: &[u32]| -> Vec<Valuation> {
            let distinct = reader.distinct_observations();
            ids.iter()
                .map(|&id| distinct[id as usize].clone())
                .collect()
        };
        let window_contents: Vec<Vec<Valuation>> =
            distinct_windows.chunks_exact(w).map(observations).collect();
        drop(distinct_windows);
        let (blocks, complete) = reservoir.finish();
        let blocks: Vec<Vec<Valuation>> = blocks.iter().map(|block| observations(block)).collect();
        let (signature, symbols) = reader.into_parts();

        // Calibration: a reservoir that retained every block reassembles
        // into the exact stream (identical to in-memory calibration);
        // otherwise each sampled block calibrates as its own shard so that
        // no observation pair straddles a sampling gap.
        let abstractor = if complete {
            let all: Vec<Valuation> = blocks.into_iter().flatten().collect();
            let calibration = Trace::from_parts(signature.clone(), symbols.clone(), all)?;
            WindowAbstractor::from_calibration(
                &calibration,
                w,
                config.synthesis.clone(),
                &config.input_variables,
            )?
        } else {
            let shards: Vec<&[Valuation]> = blocks
                .iter()
                .map(Vec::as_slice)
                .filter(|block| block.len() >= w)
                .collect();
            WindowAbstractor::from_calibration_shards(
                &signature,
                &symbols,
                &shards,
                w,
                config.synthesis.clone(),
                &config.input_variables,
            )?
        };

        // Abstraction: each distinct window is synthesised once and interned
        // in first-occurrence order, so predicate ids are identical to an
        // in-memory run. The wall-clock budget is checked every
        // `ABSTRACTION_CHECK_INTERVAL` windows, so a stream with many
        // expensive distinct windows cannot run past it unnoticed.
        let mut alphabet = PredicateAlphabet::new();
        let mut wid_to_pred = Vec::with_capacity(window_contents.len());
        for (index, content) in window_contents.iter().enumerate() {
            if index % ABSTRACTION_CHECK_INTERVAL == 0 {
                self.check_time(start)?;
            }
            wid_to_pred.push(alphabet.intern(abstractor.compute_predicate(content)));
        }
        drop(window_contents);
        // Same element size: the collect reuses the window-id allocation.
        let sequence: Vec<PredId> = wid_sequence
            .into_iter()
            .map(|wid| wid_to_pred[wid as usize])
            .collect();

        let stats = LearnStats {
            trace_length: total_observations,
            shards: 1,
            peak_resident_observations: peak_resident,
            ingest_time,
            synthesis_time: start.elapsed().saturating_sub(ingest_time),
            ..LearnStats::default()
        };
        self.segment_and_solve(vec![sequence], alphabet, signature, symbols, stats, start)
    }

    /// Phase 2 and 3, shared by every entry point: segments the per-trace
    /// predicate sequences into the unique solver windows — never bridging a
    /// trace boundary — builds the compliance oracle, and searches for the
    /// smallest compliant automaton.
    fn segment_and_solve(
        &self,
        sequences: Vec<Vec<PredId>>,
        alphabet: PredicateAlphabet,
        signature: Signature,
        symbols: SymbolTable,
        mut stats: LearnStats,
        start: Instant,
    ) -> Result<LearnedModel, LearnError> {
        let config = &self.config;
        let segmentation_start = Instant::now();
        let (windows, shard_windows) = segment(&sequences, config.window, config.segmented);
        // The valid-subsequence set is a property of the input alone: build
        // the compliance oracle once. With `l ≤ w`, every length-`l`
        // substring of a trace lies inside one of its windows (or its one
        // full-trace segment), and no window bridges two traces, so the few
        // unique windows give the same set as the full sequences.
        let l = config.compliance_length;
        let checker = if l <= config.window {
            ComplianceChecker::new(&windows, l)
        } else {
            ComplianceChecker::new(&sequences, l)
        };
        stats.predicate_count = sequences.iter().map(Vec::len).sum();
        stats.alphabet_size = alphabet.len();
        stats.solver_windows = windows.len();
        stats.shard_windows = shard_windows;
        stats.segmentation_time = segmentation_start.elapsed();

        debug_assert!(!windows.is_empty());
        let solver_start = Instant::now();
        let (num_states, automaton) = self.search(windows, &checker, start, &mut stats)?;
        stats.states = num_states;
        stats.solver_time = solver_start.elapsed();
        stats.total_time = start.elapsed();
        Ok(LearnedModel {
            automaton,
            alphabet,
            signature,
            symbols,
            sequences,
            stats,
        })
    }

    /// Phase 3: tries the candidate state counts in ascending order. One
    /// encoder holds the windows and every forbidden sequence discovered so
    /// far; retargeting it to the next count builds that count's base
    /// encoding with the earlier discoveries already included.
    fn search(
        &self,
        windows: Vec<Vec<PredId>>,
        checker: &ComplianceChecker,
        start: Instant,
        stats: &mut LearnStats,
    ) -> Result<(usize, Nfa<PredId>), LearnError> {
        let config = &self.config;
        let mut encoder = AutomatonEncoder::new(windows, config.initial_states);
        for num_states in config.initial_states..=config.max_states {
            if let Some(automaton) =
                self.refine_at_count(&mut encoder, num_states, checker, start, stats)?
            {
                return Ok((num_states, automaton));
            }
        }
        Err(LearnError::NoAutomaton {
            max_states: config.max_states,
        })
    }

    /// Runs the complete compliance-refinement loop at one candidate state
    /// count on its own incremental solver: the base encoding once, then
    /// only delta clauses per round. Returns the compliant automaton, or
    /// `None` when the count is refuted; the forbidden sequences this count
    /// discovered stay in `encoder` for the next one.
    fn refine_at_count(
        &self,
        encoder: &mut AutomatonEncoder,
        num_states: usize,
        checker: &ComplianceChecker,
        start: Instant,
        stats: &mut LearnStats,
    ) -> Result<Option<Nfa<PredId>>, LearnError> {
        let config = &self.config;
        let limits = Limits {
            max_conflicts: config.max_conflicts,
            max_propagations: None,
        };
        self.check_time(start)?;
        encoder.set_num_states(num_states);
        let encoding = encoder.encode_base();
        let mut solver = Solver::from_cnf(&encoding.cnf);
        stats.solvers_constructed += 1;
        let mut refinements_here = 0usize;
        let accepted = loop {
            self.check_time(start)?;
            if encoder.estimated_clauses() > config.max_clauses {
                return Err(LearnError::BudgetExhausted {
                    resource: format!(
                        "encoding with {} states exceeds the clause budget ({} estimated)",
                        num_states,
                        encoder.estimated_clauses()
                    ),
                });
            }
            if refinements_here > 0 {
                stats.reused_learnt_clauses += solver.num_learnts() as u64;
            }
            stats.sat_queries += 1;
            match solver.solve_with_limits(limits) {
                SatResult::Unsat => break None,
                SatResult::Unknown => {
                    return Err(LearnError::BudgetExhausted {
                        resource: format!("SAT conflict budget exhausted with {num_states} states"),
                    });
                }
                SatResult::Sat(model) => {
                    let candidate = encoding.decode(encoder.windows(), &model);
                    let violations = checker.invalid(&candidate);
                    if violations.is_empty() {
                        break Some(candidate);
                    }
                    refinements_here += 1;
                    if refinements_here > config.max_refinements {
                        return Err(LearnError::BudgetExhausted {
                            resource: format!(
                                "more than {} refinement rounds with {num_states} states",
                                config.max_refinements
                            ),
                        });
                    }
                    for violation in violations {
                        encoder.forbid_sequence(violation);
                    }
                    for clause in encoder.delta_clauses(&encoding) {
                        solver.add_clause(clause);
                    }
                }
            }
        };
        stats.refinements += refinements_here;
        let solver_stats = solver.stats();
        stats.absorb_solver_counters(solver_stats.minimized_literals, &solver_stats.lbd_histogram);
        Ok(accepted)
    }

    fn validate_config(&self) -> Result<(), LearnError> {
        let config = &self.config;
        if config.window < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "window length must be at least 1".to_owned(),
            });
        }
        if config.compliance_length < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "compliance path length must be at least 1".to_owned(),
            });
        }
        if config.initial_states < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "the search must start from at least 1 state".to_owned(),
            });
        }
        if config.initial_states > config.max_states {
            return Err(LearnError::InvalidConfig {
                reason: format!(
                    "initial state count {} exceeds the maximum {}",
                    config.initial_states, config.max_states
                ),
            });
        }
        if config.stream_chunk < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "stream chunk must be at least 1 observation".to_owned(),
            });
        }
        if config.calibration_sample < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "calibration sample must be at least 1 observation".to_owned(),
            });
        }
        Ok(())
    }

    fn check_time(&self, start: Instant) -> Result<(), LearnError> {
        if let Some(budget) = self.config.time_budget {
            if start.elapsed() > budget {
                return Err(LearnError::BudgetExhausted {
                    resource: format!("wall-clock budget of {budget:?} exceeded"),
                });
            }
        }
        Ok(())
    }
}

/// Segments per-trace predicate sequences into the unique windows of length
/// `w`, never bridging a trace boundary. Returns them in first-occurrence
/// order, with the number each shard newly contributed. In full-trace mode
/// (`segmented == false`), and for a shard shorter than `w`, the whole
/// sequence stands in for a single segment.
pub(crate) fn segment(
    sequences: &[Vec<PredId>],
    w: usize,
    segmented: bool,
) -> (Vec<Vec<PredId>>, Vec<usize>) {
    let mut collector = WindowCollector::with_hasher(w, IdBuildHasher::default());
    let mut shard_windows = Vec::with_capacity(sequences.len());
    for sequence in sequences {
        let before = collector.unique_count();
        if !segmented || sequence.len() < w {
            collector.push_segment(sequence.clone());
        } else {
            collector.extend(sequence.iter().copied());
            collector.end_trace();
        }
        shard_windows.push(collector.unique_count() - before);
    }
    (collector.into_unique(), shard_windows)
}

/// Convenience: learns a model with the default configuration.
///
/// # Errors
///
/// See [`Learner::learn`].
pub fn learn_with_defaults(trace: &Trace) -> Result<LearnedModel, LearnError> {
    Learner::new(LearnerConfig::default()).learn(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::invalid_sequences;
    use tracelearn_trace::{parse_csv, to_csv, unique_windows, Value};
    use tracelearn_workloads::{counter, usb_slot};

    fn small_counter() -> Trace {
        counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 80,
        })
    }

    #[test]
    fn learns_a_small_counter_model() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        assert!(model.num_states() >= 2);
        assert!(
            model.num_states() <= 5,
            "too many states: {}",
            model.num_states()
        );
        assert!(model.automaton().is_deterministic());
        let predicates = model.predicate_strings();
        assert!(
            predicates.iter().any(|p| p.contains("x + 1")),
            "{predicates:?}"
        );
        assert!(
            predicates.iter().any(|p| p.contains("x - 1")),
            "{predicates:?}"
        );
        let stats = model.stats();
        assert_eq!(stats.trace_length, 80);
        assert!(stats.sat_queries >= 1);
        assert!(stats.alphabet_size >= 3);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.shard_windows.len(), 1);
        assert_eq!(stats.shard_windows[0], stats.solver_windows);
        assert_eq!(stats.peak_resident_observations, 80);
    }

    #[test]
    fn learned_model_embeds_every_unique_window() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let sequence = model.predicate_sequence().to_vec();
        for window in unique_windows(&sequence, 3) {
            assert!(model.automaton().accepts_from_any_state(&window));
        }
    }

    #[test]
    fn compliance_holds_on_the_returned_model() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let violations = invalid_sequences(model.automaton(), model.predicate_sequence(), 2);
        assert!(violations.is_empty());
    }

    #[test]
    fn segmented_and_full_trace_agree_on_small_inputs() {
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 6,
            length: 40,
        });
        let segmented = Learner::new(LearnerConfig::default())
            .learn(&trace)
            .unwrap();
        let full = Learner::new(LearnerConfig::non_segmented())
            .learn(&trace)
            .unwrap();
        assert_eq!(segmented.num_states(), full.num_states());
    }

    #[test]
    fn usb_slot_model_is_concise() {
        let trace = usb_slot::generate(&usb_slot::UsbSlotConfig {
            length: 39,
            seed: 0xDAC2020,
        });
        let model = learn_with_defaults(&trace).unwrap();
        assert!(model.num_states() <= 6, "{} states", model.num_states());
        let predicates = model.predicate_strings();
        assert!(
            predicates.iter().any(|p| p.contains("CR_ADDR_DEV")),
            "{predicates:?}"
        );
        assert!(
            predicates.iter().any(|p| p.contains("CR_CONFIG_END")),
            "{predicates:?}"
        );
    }

    /// The seed's Phase-3 loop: a fresh encoding and a fresh solver for every
    /// refinement round, over the learner's own predicate sequence. Used as
    /// the reference the incremental loop must agree with.
    fn from_scratch_states(trace: &Trace, config: &LearnerConfig) -> usize {
        let learned = Learner::new(config.clone()).learn(trace).unwrap();
        let sequence = learned.predicate_sequence();
        let windows = unique_windows(sequence, config.window);
        for num_states in config.initial_states..=config.max_states {
            let mut encoder = AutomatonEncoder::new(windows.clone(), num_states);
            loop {
                let encoding = encoder.encode();
                match Solver::from_cnf(&encoding.cnf).solve() {
                    SatResult::Unsat => break,
                    SatResult::Unknown => unreachable!("no limits were set"),
                    SatResult::Sat(model) => {
                        let candidate = encoding.decode(&windows, &model);
                        let violations =
                            invalid_sequences(&candidate, sequence, config.compliance_length);
                        if violations.is_empty() {
                            return num_states;
                        }
                        for violation in violations {
                            encoder.forbid_sequence(violation);
                        }
                    }
                }
            }
        }
        panic!("no automaton within the state bound");
    }

    #[test]
    fn incremental_loop_agrees_with_from_scratch_refinement() {
        for trace in [
            small_counter(),
            usb_slot::generate(&usb_slot::UsbSlotConfig {
                length: 39,
                seed: 0xDAC2020,
            }),
        ] {
            let config = LearnerConfig::default();
            let incremental = Learner::new(config.clone()).learn(&trace).unwrap();
            let reference = from_scratch_states(&trace, &config);
            assert_eq!(
                incremental.num_states(),
                reference,
                "incremental refinement must find the same minimal state count"
            );
        }
    }

    #[test]
    fn one_solver_per_candidate_state_count() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let stats = model.stats();
        // The search starts at `initial_states` (2 by default) and constructs
        // exactly one solver per candidate count up to the final one.
        assert_eq!(
            stats.solvers_constructed,
            stats.states - LearnerConfig::default().initial_states + 1
        );
        assert!(stats.sat_queries >= stats.solvers_constructed);
    }

    #[test]
    fn zero_window_is_an_invalid_config_not_a_panic() {
        let config = LearnerConfig {
            window: 0,
            ..LearnerConfig::default()
        };
        match Learner::new(config).learn(&small_counter()) {
            Err(LearnError::InvalidConfig { reason }) => assert!(reason.contains("window")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_configs_are_rejected_upfront() {
        let trace = small_counter();
        let zero_compliance = LearnerConfig {
            compliance_length: 0,
            ..LearnerConfig::default()
        };
        assert!(matches!(
            Learner::new(zero_compliance).learn(&trace),
            Err(LearnError::InvalidConfig { .. })
        ));
        let zero_initial = LearnerConfig {
            initial_states: 0,
            ..LearnerConfig::default()
        };
        assert!(matches!(
            Learner::new(zero_initial).learn(&trace),
            Err(LearnError::InvalidConfig { .. })
        ));
        let inverted_bounds = LearnerConfig {
            initial_states: 8,
            max_states: 4,
            ..LearnerConfig::default()
        };
        match Learner::new(inverted_bounds).learn(&trace) {
            Err(LearnError::InvalidConfig { reason }) => {
                assert!(reason.contains('8') && reason.contains('4'), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let zero_chunk = LearnerConfig {
            stream_chunk: 0,
            ..LearnerConfig::default()
        };
        match Learner::new(zero_chunk).learn(&trace) {
            Err(LearnError::InvalidConfig { reason }) => {
                assert!(reason.contains("stream chunk"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let zero_sample = LearnerConfig {
            calibration_sample: 0,
            ..LearnerConfig::default()
        };
        match Learner::new(zero_sample).learn(&trace) {
            Err(LearnError::InvalidConfig { reason }) => {
                assert!(reason.contains("calibration sample"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn too_short_trace_is_rejected() {
        let sig = tracelearn_trace::Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        trace.push_row([Value::Int(1)]).unwrap();
        assert!(matches!(
            learn_with_defaults(&trace),
            Err(LearnError::TraceTooShort { .. })
        ));
    }

    #[test]
    fn tight_time_budget_reports_budget_exhaustion() {
        let trace = small_counter();
        let config = LearnerConfig::default().with_time_budget(Duration::from_nanos(1));
        match Learner::new(config).learn(&trace) {
            Err(LearnError::BudgetExhausted { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn builder_methods_set_fields() {
        let config = LearnerConfig::default()
            .with_window(4)
            .with_compliance_length(3)
            .with_initial_states(0)
            .with_input_variable("ip")
            .with_stream_chunk(1024)
            .with_calibration_sample(2048);
        assert_eq!(config.window, 4);
        assert_eq!(config.compliance_length, 3);
        assert_eq!(config.initial_states, 1);
        assert_eq!(config.input_variables, vec!["ip".to_owned()]);
        assert_eq!(config.stream_chunk, 1024);
        assert_eq!(config.calibration_sample, 2048);
    }

    #[test]
    fn dot_output_contains_rendered_predicates() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let dot = model.to_dot("counter");
        assert!(dot.contains("digraph counter"));
        assert!(dot.contains("x + 1"));
    }

    /// The statistics with every wall-clock time zeroed: the part of a run
    /// that two runs over the same input must agree on.
    fn without_wall_times(stats: LearnStats) -> LearnStats {
        LearnStats {
            ingest_time: Duration::ZERO,
            synthesis_time: Duration::ZERO,
            segmentation_time: Duration::ZERO,
            solver_time: Duration::ZERO,
            total_time: Duration::ZERO,
            ..stats
        }
    }

    #[test]
    fn learn_many_on_one_trace_matches_learn() {
        // The two entry points differ only in calibration; on a one-trace
        // set that calibration sees the same observations, so everything
        // but the wall times must agree.
        for trace in [
            small_counter(),
            usb_slot::generate(&usb_slot::UsbSlotConfig {
                length: 39,
                seed: 0xDAC2020,
            }),
        ] {
            let set = TraceSet::from_traces([&trace]).unwrap();
            let learner = Learner::new(LearnerConfig::default());
            let single = learner.learn(&trace).unwrap();
            let many = learner.learn_many(&set).unwrap();
            assert_eq!(many.automaton(), single.automaton());
            assert_eq!(many.predicate_sequences(), single.predicate_sequences());
            assert_eq!(many.alphabet(), single.alphabet());
            assert_eq!(
                without_wall_times(many.stats()),
                without_wall_times(single.stats())
            );
            assert_eq!(many.stats().shards, 1);
        }
    }

    #[test]
    fn learn_many_merges_duplicate_shards_without_phantom_windows() {
        let trace = small_counter();
        let set = TraceSet::from_traces([&trace, &trace]).unwrap();
        let learner = Learner::new(LearnerConfig::default());
        let single = learner.learn(&trace).unwrap();
        let many = learner.learn_many(&set).unwrap();
        // The second identical shard contributes no new windows…
        let stats = many.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.shard_windows.len(), 2);
        assert_eq!(stats.shard_windows[1], 0);
        assert_eq!(stats.solver_windows, single.stats().solver_windows);
        // …and the learned model is the same.
        assert_eq!(many.num_states(), single.num_states());
        assert_eq!(stats.trace_length, 160);
        assert_eq!(many.predicate_sequences().len(), 2);
    }

    #[test]
    fn learn_many_rejects_an_empty_set() {
        let set = TraceSet::new(tracelearn_trace::Signature::builder().int("x").build());
        assert!(matches!(
            Learner::new(LearnerConfig::default()).learn_many(&set),
            Err(LearnError::Trace(TraceError::EmptyTrace))
        ));
    }

    #[test]
    fn learn_streamed_matches_in_memory_on_a_counter_csv() {
        // The whole trace fits in the calibration reservoir, so the streamed
        // abstraction is calibrated on exactly the data `learn` sees and the
        // two paths must agree bit for bit.
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 200,
        });
        let csv = to_csv(&trace).unwrap();
        let learner = Learner::new(LearnerConfig::default().with_stream_chunk(64));
        let in_memory = learner.learn(&parse_csv(&csv).unwrap()).unwrap();
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        let streamed = learner.learn_streamed(reader).unwrap();
        assert_eq!(streamed.num_states(), in_memory.num_states());
        assert_eq!(streamed.num_transitions(), in_memory.num_transitions());
        assert_eq!(
            streamed.predicate_sequence(),
            in_memory.predicate_sequence()
        );
        assert_eq!(
            streamed.stats().solver_windows,
            in_memory.stats().solver_windows
        );
        assert_eq!(streamed.stats().trace_length, 200);
    }

    #[test]
    fn learn_streamed_rejects_a_too_short_stream() {
        let csv = "x:int\n1\n2\n";
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        match Learner::new(LearnerConfig::default()).learn_streamed(reader) {
            Err(LearnError::TraceTooShort {
                trace_length: 2,
                window: 3,
            }) => {}
            other => panic!("expected TraceTooShort, got {other:?}"),
        }
    }

    #[test]
    fn learn_streamed_surfaces_parse_errors() {
        let csv = "x:int\n1\n2\n3\n4\nnot_a_number\n";
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        match Learner::new(LearnerConfig::default()).learn_streamed(reader) {
            Err(LearnError::Trace(TraceError::Parse { line: 6, .. })) => {}
            other => panic!("expected a line-6 parse error, got {other:?}"),
        }
    }

    #[test]
    fn block_reservoir_keeps_small_streams_completely() {
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        for v in 0..100i64 {
            trace.push_row([Value::Int(v)]).unwrap();
        }
        let mut reservoir = BlockReservoir::new(8, 64);
        for observation in trace.observations() {
            reservoir.push(observation);
        }
        let (blocks, complete) = reservoir.finish();
        assert!(complete);
        let reassembled: Vec<Valuation> = blocks.into_iter().flatten().collect();
        assert_eq!(reassembled, trace.observations().to_vec());
    }

    #[test]
    fn block_reservoir_samples_uniformly_over_large_streams() {
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        for v in 0..10_000i64 {
            trace.push_row([Value::Int(v)]).unwrap();
        }
        let mut reservoir = BlockReservoir::new(10, 50);
        for observation in trace.observations() {
            reservoir.push(observation);
        }
        assert!(reservoir.resident_observations() <= 500);
        let (blocks, complete) = reservoir.finish();
        assert!(!complete);
        assert_eq!(blocks.len(), 50);
        // The sample must reach well past the old prefix-style cutoff: at
        // least a third of the blocks come from the second half.
        let late = blocks
            .iter()
            .filter(|block| {
                block[0]
                    .get(tracelearn_trace::VarId::new(0))
                    .as_int()
                    .unwrap()
                    >= 5000
            })
            .count();
        assert!(late >= 17, "only {late} of 50 blocks from the second half");
        // Blocks stay in stream order and contiguous internally.
        for block in &blocks {
            for pair in block.windows(2) {
                let a = pair[0]
                    .get(tracelearn_trace::VarId::new(0))
                    .as_int()
                    .unwrap();
                let b = pair[1]
                    .get(tracelearn_trace::VarId::new(0))
                    .as_int()
                    .unwrap();
                assert_eq!(b, a + 1);
            }
        }
    }

    #[test]
    fn reservoir_calibration_sees_late_behaviour_changes() {
        // A variable that increments for the first 6000 observations and
        // decrements afterwards. A prefix-only calibration (the old streamed
        // behaviour) never sees the decrement; the reservoir does, and with
        // a sample bound covering the stream the streamed model is exactly
        // the in-memory one.
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        let mut x = 0i64;
        for t in 0..9000 {
            trace.push_row([Value::Int(x)]).unwrap();
            if t < 6000 {
                x += 1;
            } else {
                x -= 1;
            }
        }
        let csv = to_csv(&trace).unwrap();
        let learner = Learner::new(LearnerConfig::default().with_stream_chunk(512));
        let in_memory = learner.learn(&trace).unwrap();
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        let streamed = learner.learn_streamed(reader).unwrap();
        assert_eq!(
            streamed.predicate_sequence(),
            in_memory.predicate_sequence()
        );
        assert_eq!(streamed.num_states(), in_memory.num_states());
        let strings = streamed.predicate_strings();
        assert!(strings.iter().any(|p| p.contains("x - 1")), "{strings:?}");
    }
}
