//! The learning workloads, `learn-paper` and `learn-long`.
//!
//! Each input goes as CSV bytes into [`Learner::learn_streamed`] with the
//! configuration `served` uses for that system (`learner_config_for`,
//! default thread count). The traced pass repeats what `learn_streamed`
//! does on the same bytes, one layer at a time — ingest, calibration,
//! abstraction, segmentation, compliance and the per-state-count SAT search —
//! and asserts that it reaches the end-to-end model's state count, SAT query
//! count and refinement count.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tracelearn_core::encoding::AutomatonEncoder;
use tracelearn_core::{
    ComplianceChecker, LearnStats, LearnedModel, Learner, PredId, PredicateAlphabet,
    WindowAbstractor,
};
use tracelearn_sat::{Limits, SatResult, Solver};
use tracelearn_serve::learner_config_for;
use tracelearn_trace::{StreamingCsvReader, Trace, Valuation, WindowCollector};
use tracelearn_workloads::Workload as System;

use crate::cli::{Args, Workload};
use crate::inputs::{
    csv_of, expected_states, pool_seeds, short_name, LONG_POOL, LONG_ROWS, PAPER_POOL,
};
use crate::report::{metric, Metric, Outcome};
use crate::stats::median;

/// Input seeds per `learn-paper` run. SAT effort differs between seeds of
/// the same system (usb_attach most), so one run cycles through several and
/// reports the median over them.
pub const PAPER_SEEDS: usize = 24;

/// One system's training trace.
#[derive(Debug, Clone)]
pub struct LearnInput {
    /// The simulated system.
    pub system: System,
    /// The generator seed (a pool seed).
    pub seed: u64,
    /// The trace as CSV bytes.
    pub csv: Vec<u8>,
    /// Data rows in `csv`.
    pub rows: usize,
    /// Rows asked of the simulator.
    length: usize,
}

impl LearnInput {
    /// Generates `length` rows of `system` from `seed`.
    pub fn generate(system: System, length: usize, seed: u64) -> LearnInput {
        let csv = csv_of(system, length, seed);
        let rows = csv
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1);
        LearnInput {
            system,
            seed,
            csv,
            rows,
            length,
        }
    }

    /// Writes the same trace again into the existing buffer.
    fn regenerate(&mut self) {
        self.csv.clear();
        self.system
            .write_csv(self.length, self.seed, &mut self.csv)
            .expect("writing to memory cannot fail");
    }

    /// Learns the model end to end, timing CSV bytes → model.
    ///
    /// # Errors
    ///
    /// Returns the learner's or the reader's error as text.
    pub fn learn(&self) -> Result<(LearnedModel, Duration), String> {
        let learner = Learner::new(learner_config_for(self.system));
        let start = Instant::now();
        let reader = StreamingCsvReader::new(&self.csv[..]).map_err(|e| e.to_string())?;
        let model = learner.learn_streamed(reader).map_err(|e| e.to_string())?;
        Ok((model, start.elapsed()))
    }
}

/// One unit of the workload: the inputs learned back to back in one pass.
pub type InputSet = Vec<LearnInput>;

fn rows(set: &InputSet) -> usize {
    set.iter().map(|input| input.rows).sum()
}

/// The six paper systems at their paper lengths, from one pool seed.
pub fn paper_set(seed: u64) -> InputSet {
    System::all()
        .into_iter()
        .map(|system| LearnInput::generate(system, system.paper_trace_length(), seed))
        .collect()
}

/// The `learn-long` stream from one pool seed.
pub fn long_set(seed: u64) -> InputSet {
    vec![LearnInput::generate(System::LinuxKernel, LONG_ROWS, seed)]
}

/// Times the run's inputs are generated; the set-up time is the median.
const GENERATIONS: usize = 5;

fn generate(args: &Args, seeds: &[u64]) -> Vec<InputSet> {
    let one = |&seed: &u64| match args.workload {
        Workload::LearnPaper => paper_set(seed),
        _ => long_set(seed),
    };
    seeds.iter().map(one).collect()
}

/// The input sets of a learning run and its set-up time: the median over
/// [`GENERATIONS`] regenerations of all of them into the buffers of a
/// first, untimed generation. Page faults on fresh buffers cost what the
/// host's load makes them cost, and would make the figure bimodal.
pub fn input_sets(args: &Args) -> (Vec<InputSet>, f64) {
    let seeds = match args.workload {
        Workload::LearnPaper => pool_seeds(args.seed, PAPER_POOL, PAPER_SEEDS),
        _ => pool_seeds(args.seed, LONG_POOL, 1),
    };
    let mut sets = generate(args, &seeds);
    let mut times = Vec::with_capacity(GENERATIONS);
    for _ in 0..GENERATIONS {
        let start = Instant::now();
        sets.iter_mut().flatten().for_each(LearnInput::regenerate);
        times.push(start.elapsed().as_secs_f64());
    }
    (sets, median(&mut times))
}

/// Input sets the `learn-paper` memory probe measures.
const PROBE_SETS: usize = 7;

/// The memory probe's inputs: the run's first input sets.
pub fn probe_sets(args: &Args) -> Vec<InputSet> {
    let seeds = match args.workload {
        Workload::LearnPaper => pool_seeds(args.seed, PAPER_POOL, PROBE_SETS),
        _ => pool_seeds(args.seed, LONG_POOL, 1),
    };
    generate(args, &seeds)
}

/// Checks a learned model: the state count recorded for its system, and
/// compliance with its own predicate sequences.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn check_model(input: &LearnInput, model: &LearnedModel) -> Result<(), String> {
    let expected = expected_states(input.system, input.seed);
    if model.num_states() != expected {
        return Err(format!(
            "{} seed {}: {} states, expected {expected}",
            short_name(input.system),
            input.seed,
            model.num_states()
        ));
    }
    let l = learner_config_for(input.system).compliance_length;
    if !ComplianceChecker::new(model.predicate_sequences(), l).is_compliant(model.automaton()) {
        return Err(format!(
            "{}: model violates its own predicate sequence",
            short_name(input.system)
        ));
    }
    Ok(())
}

/// The timed run: every input is learned and fully checked once (which also
/// warms the process), then passes cycle through the input sets until the
/// run's time is up.
pub fn run_timed(args: &Args, sets: &[InputSet], setup_s: f64, peak_heap_mb: f64) -> Outcome {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for input in sets.iter().flatten() {
        outcome.attempted += 1;
        if let Err(error) = input
            .learn()
            .and_then(|(model, _)| check_model(input, &model))
        {
            eprintln!("perfbench: {error}");
            outcome.failed += 1;
        }
    }
    let mut passes: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut index = 0;
    while index < sets.len() || start.elapsed() < budget {
        let slot = index % sets.len();
        let mut pass = 0.0;
        for input in &sets[slot] {
            outcome.attempted += 1;
            let expected = expected_states(input.system, input.seed);
            match input.learn() {
                Ok((model, elapsed)) if model.num_states() == expected => {
                    pass += elapsed.as_secs_f64();
                }
                Ok((model, _)) => {
                    eprintln!(
                        "perfbench: {} seed {}: {} states, expected {expected}",
                        short_name(input.system),
                        input.seed,
                        model.num_states()
                    );
                    outcome.failed += 1;
                }
                Err(error) => {
                    eprintln!("perfbench: {error}");
                    outcome.failed += 1;
                }
            }
        }
        passes[slot].push(pass);
        index += 1;
    }
    // A set's pass time is its fastest repeat: the work is deterministic, so
    // slower repeats measure the host's other tenants, not the program. The
    // median over input sets keeps an unusually hard seed from moving the
    // run's figure.
    let mut latency = Vec::new();
    let mut rate = Vec::new();
    for (set, times) in sets.iter().zip(&passes) {
        let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
        latency.push(fastest * 1e6);
        rate.push(rows(set) as f64 / fastest);
    }
    outcome.correct = outcome.failed == 0;
    outcome.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("events_per_s", median(&mut rate), "1/s"),
        metric("latency_p50_us", median(&mut latency), "us"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
    ];
    outcome
}

/// The peak-memory probe: one pass over an input set.
pub fn probe(set: &InputSet) {
    for input in set {
        if let Err(error) = input.learn() {
            eprintln!("perfbench: {error}");
        }
    }
}

/// Time and work per layer of one replayed learning run (summed over the
/// inputs of a pass).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `StreamingCsvReader::new` and `read_chunk` to end of input.
    pub ingest: Duration,
    /// `WindowAbstractor` calibration.
    pub calibrate: Duration,
    /// `compute_predicate` per distinct observation window, plus interning.
    pub abstraction: Duration,
    /// `WindowCollector` over the predicate sequence.
    pub segment: Duration,
    /// `ComplianceChecker::new`.
    pub compliance_setup: Duration,
    /// `ComplianceChecker::invalid` on each candidate.
    pub compliance_check: Duration,
    /// Base and delta encodings, decoding, and loading clauses into solvers.
    pub encode: Duration,
    /// Solve calls at state counts that were refuted.
    pub refute: Duration,
    /// Solve calls at the accepted state count.
    pub accept: Duration,
    /// Solve calls at one state below the accepted count.
    pub last_refute: Duration,
    /// Unique predicate windows handed to the solver.
    pub unique_windows: usize,
    /// Distinct observation windows abstracted.
    pub distinct_windows: usize,
    /// Distinct predicates.
    pub alphabet: usize,
    /// Valid length-`l` subsequences.
    pub allowed: usize,
    /// Invalid sequences found in candidates.
    pub rejected: usize,
    /// Clauses loaded into solvers.
    pub clauses: usize,
    /// Solve calls.
    pub queries: usize,
    /// Solver conflicts.
    pub conflicts: u64,
    /// Solver propagations.
    pub propagations: u64,
    /// Compliance refinement rounds.
    pub refinements: usize,
    /// States of the accepted automaton.
    pub states: usize,
}

impl Layers {
    /// Time of all replayed layers.
    pub fn total(&self) -> Duration {
        self.ingest
            + self.calibrate
            + self.abstraction
            + self.segment
            + self.compliance_setup
            + self.compliance_check
            + self.encode
            + self.refute
            + self.accept
    }

    fn add(&mut self, other: &Layers) {
        self.ingest += other.ingest;
        self.calibrate += other.calibrate;
        self.abstraction += other.abstraction;
        self.segment += other.segment;
        self.compliance_setup += other.compliance_setup;
        self.compliance_check += other.compliance_check;
        self.encode += other.encode;
        self.refute += other.refute;
        self.accept += other.accept;
        self.last_refute += other.last_refute;
        self.unique_windows += other.unique_windows;
        self.distinct_windows += other.distinct_windows;
        self.alphabet += other.alphabet;
        self.allowed += other.allowed;
        self.rejected += other.rejected;
        self.clauses += other.clauses;
        self.queries += other.queries;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.refinements += other.refinements;
        self.states += other.states;
    }
}

fn timed<T>(total: &mut Duration, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = call();
    *total += start.elapsed();
    result
}

/// The streamed learner's calibration sample: whole blocks of the stream,
/// kept with equal probability by a fixed-seed reservoir. This reproduces the
/// learner's private sampler so the replay calibrates on the same sample.
struct BlockReservoir {
    block_len: usize,
    capacity: usize,
    kept: Vec<(usize, Vec<Valuation>)>,
    current: Vec<Valuation>,
    destination: Option<Option<usize>>,
    fill: usize,
    seen_blocks: usize,
    rng: u64,
}

impl BlockReservoir {
    fn new(block_len: usize, capacity: usize) -> Self {
        BlockReservoir {
            block_len: block_len.max(1),
            capacity: capacity.max(1),
            kept: Vec::new(),
            current: Vec::new(),
            destination: None,
            fill: 0,
            seen_blocks: 0,
            rng: 0xDAC2020,
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn push(&mut self, observation: &Valuation) {
        if self.destination.is_none() {
            let j = self.seen_blocks as u64;
            self.destination = Some(if self.kept.len() < self.capacity {
                Some(self.kept.len())
            } else {
                let r = (self.next_rand() % (j + 1)) as usize;
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

    fn finish(mut self) -> (Vec<Vec<Valuation>>, bool) {
        if self.fill > 0 {
            self.commit();
        }
        let complete = self.kept.len() == self.seen_blocks;
        self.kept.sort_by_key(|(index, _)| *index);
        let blocks = self.kept.into_iter().map(|(_, block)| block).collect();
        (blocks, complete)
    }
}

/// Replays `learn_streamed` on `input` one layer at a time, sequentially.
///
/// # Errors
///
/// Returns the first layer's error as text.
pub fn replay(input: &LearnInput) -> Result<Layers, String> {
    let config = learner_config_for(input.system);
    let w = config.window;
    let chunk = config.stream_chunk.max(w);
    let mut layers = Layers::default();
    let text = |e: &dyn std::fmt::Display| e.to_string();

    let mut reader = timed(&mut layers.ingest, || {
        StreamingCsvReader::new(&input.csv[..])
    })
    .map_err(|e| text(&e))?;
    let block_len = w.max(32);
    let capacity = config.calibration_sample.max(chunk).max(4096);
    let mut reservoir = BlockReservoir::new(block_len, capacity.div_ceil(block_len));
    let mut window_ids: HashMap<Vec<Valuation>, u32> = HashMap::new();
    let mut window_sequence: Vec<u32> = Vec::new();
    let mut buffer: Vec<Valuation> = Vec::new();
    let mut scratch: Vec<Valuation> = Vec::new();
    loop {
        let read = timed(&mut layers.ingest, || {
            reader.read_chunk(chunk, &mut scratch)
        })
        .map_err(|e| text(&e))?;
        if read == 0 {
            break;
        }
        for observation in &scratch {
            reservoir.push(observation);
        }
        buffer.append(&mut scratch);
        if buffer.len() >= w {
            for s in 0..=buffer.len() - w {
                let window = &buffer[s..s + w];
                let next = window_ids.len() as u32;
                let id = *window_ids.entry(window.to_vec()).or_insert(next);
                window_sequence.push(id);
            }
            buffer.drain(..buffer.len() - (w - 1));
        }
    }
    let mut contents: Vec<Vec<Valuation>> = vec![Vec::new(); window_ids.len()];
    for (content, id) in window_ids {
        contents[id as usize] = content;
    }

    let (signature, symbols) = reader.into_parts();
    let (blocks, complete) = reservoir.finish();
    let abstractor = timed(&mut layers.calibrate, || {
        if complete {
            let all: Vec<Valuation> = blocks.into_iter().flatten().collect();
            let trace =
                Trace::from_parts(signature.clone(), symbols.clone(), all).map_err(|e| text(&e))?;
            WindowAbstractor::from_calibration(
                &trace,
                w,
                config.synthesis.clone(),
                &config.input_variables,
            )
            .map_err(|e| text(&e))
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
            )
            .map_err(|e| text(&e))
        }
    })?;
    let mut alphabet = PredicateAlphabet::new();
    let predicate_of: Vec<PredId> = timed(&mut layers.abstraction, || {
        contents
            .iter()
            .map(|content| alphabet.intern(abstractor.compute_predicate(content)))
            .collect()
    });
    layers.distinct_windows = contents.len();
    layers.alphabet = alphabet.len();
    let sequence: Vec<PredId> = window_sequence
        .iter()
        .map(|&id| predicate_of[id as usize])
        .collect();

    let windows = timed(&mut layers.segment, || {
        let mut collector = WindowCollector::new(w);
        collector.extend(sequence.iter().copied());
        collector.end_trace();
        collector.into_unique()
    });
    layers.unique_windows = windows.len();
    let sequences = vec![sequence];
    let checker = timed(&mut layers.compliance_setup, || {
        ComplianceChecker::new(&sequences, config.compliance_length)
    });
    layers.allowed = checker.allowed_count();

    let limits = Limits {
        max_conflicts: config.max_conflicts,
        max_propagations: None,
    };
    let mut encoder = AutomatonEncoder::new(windows, config.initial_states);
    for states in config.initial_states..=config.max_states {
        let (encoding, mut solver) = timed(&mut layers.encode, || {
            encoder.set_num_states(states);
            let encoding = encoder.encode_base();
            let solver = Solver::from_cnf(&encoding.cnf);
            (encoding, solver)
        });
        layers.clauses += encoding.cnf.num_clauses();
        let mut solving = Duration::ZERO;
        let accepted = loop {
            layers.queries += 1;
            match timed(&mut solving, || solver.solve_with_limits(limits)) {
                SatResult::Unsat => break false,
                SatResult::Unknown => {
                    return Err(format!("SAT budget exhausted at {states} states"))
                }
                SatResult::Sat(model) => {
                    let candidate = timed(&mut layers.encode, || {
                        encoding.decode(encoder.windows(), &model)
                    });
                    let violations =
                        timed(&mut layers.compliance_check, || checker.invalid(&candidate));
                    if violations.is_empty() {
                        break true;
                    }
                    layers.rejected += violations.len();
                    layers.refinements += 1;
                    let delta = timed(&mut layers.encode, || {
                        for violation in violations {
                            encoder.forbid_sequence(violation);
                        }
                        let delta = encoder.delta_clauses(&encoding);
                        let count = delta.len();
                        for clause in delta {
                            solver.add_clause(clause);
                        }
                        count
                    });
                    layers.clauses += delta;
                }
            }
        };
        let solver_stats = solver.stats();
        layers.conflicts += solver_stats.conflicts;
        layers.propagations += solver_stats.propagations;
        if accepted {
            layers.accept += solving;
            layers.states = states;
            return Ok(layers);
        }
        layers.refute += solving;
        layers.last_refute = solving;
    }
    Err(format!("no automaton within {} states", config.max_states))
}

/// Asserts that a replay reached the end-to-end run's state count, SAT query
/// count and refinement count.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_replay(layers: &Layers, stats: &LearnStats) -> Result<(), String> {
    let replayed = (layers.states, layers.queries, layers.refinements);
    let learned = (stats.states, stats.sat_queries, stats.refinements);
    if replayed == learned {
        Ok(())
    } else {
        Err(format!(
            "replay reached (states, queries, refinements) = {replayed:?}, \
             the learner {learned:?}"
        ))
    }
}

/// The per-layer figures of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LearnTrace {
    /// Replayed layers, summed over the pass's inputs.
    pub layers: Layers,
    /// End-to-end time per input.
    pub e2e: Vec<(System, Duration)>,
    /// Speculative solves of the end-to-end runs.
    pub speculative: usize,
    /// Adopted-path solves of the end-to-end runs.
    pub adopted: usize,
    /// Speculative solves aborted by cancellation.
    pub cancelled: usize,
}

impl LearnTrace {
    fn e2e_total(&self) -> Duration {
        self.e2e.iter().map(|(_, elapsed)| *elapsed).sum()
    }
}

/// The traced run: passes of end-to-end learn plus replay, cycling through
/// the input sets until the run's time is up. Reports the pass with the
/// median end-to-end time, so its layers and residual add up exactly.
pub fn run_traced(args: &Args, sets: &[InputSet]) -> (Outcome, LearnTrace) {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut passes: Vec<LearnTrace> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut index = 0;
    while index < sets.len().min(3) || start.elapsed() < budget {
        let mut pass = LearnTrace::default();
        for input in &sets[index % sets.len()] {
            outcome.attempted += 1;
            let checked = input.learn().and_then(|(model, elapsed)| {
                let layers = replay(input)?;
                let stats = model.stats();
                check_replay(&layers, &stats)?;
                pass.layers.add(&layers);
                pass.e2e.push((input.system, elapsed));
                pass.speculative += stats.speculative_solves;
                pass.adopted += stats.sat_queries;
                pass.cancelled += stats.cancelled_solves;
                Ok(())
            });
            if let Err(error) = checked {
                eprintln!("perfbench: {}: {error}", short_name(input.system));
                outcome.failed += 1;
            }
        }
        passes.push(pass);
        index += 1;
    }
    passes.sort_by_key(LearnTrace::e2e_total);
    outcome.correct = outcome.failed == 0;
    let chosen = passes.swap_remove(passes.len() / 2);
    (outcome, chosen)
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The learning layers' per-layer metrics (all zero for a serving run).
pub fn layer_metrics(trace: &LearnTrace) -> Vec<Metric> {
    let l = &trace.layers;
    let e2e = trace.e2e_total();
    let overhead = ms(e2e) - ms(l.total());
    let solves = trace.speculative + trace.adopted;
    let share = if solves == 0 {
        0.0
    } else {
        trace.speculative as f64 / solves as f64
    };
    let system_ms = |system: System| {
        trace
            .e2e
            .iter()
            .filter(|(s, _)| *s == system)
            .fold(0.0, |total, (_, elapsed)| total + ms(*elapsed))
    };
    vec![
        metric("trace.ingest_ms", ms(l.ingest), "ms"),
        metric("trace.segment_ms", ms(l.segment), "ms"),
        metric("trace.unique_windows", l.unique_windows as f64, "count"),
        metric("predicates.calibrate_ms", ms(l.calibrate), "ms"),
        metric("predicates.abstract_ms", ms(l.abstraction), "ms"),
        metric(
            "predicates.distinct_windows",
            l.distinct_windows as f64,
            "count",
        ),
        metric("predicates.alphabet", l.alphabet as f64, "count"),
        metric("compliance.setup_ms", ms(l.compliance_setup), "ms"),
        metric("compliance.allowed", l.allowed as f64, "count"),
        metric("compliance.check_ms", ms(l.compliance_check), "ms"),
        metric("compliance.rejected", l.rejected as f64, "count"),
        metric("encoding.encode_ms", ms(l.encode), "ms"),
        metric("encoding.clauses", l.clauses as f64, "count"),
        metric("sat.refute_ms", ms(l.refute), "ms"),
        metric("sat.accept_ms", ms(l.accept), "ms"),
        metric("sat.last_refute_ms", ms(l.last_refute), "ms"),
        metric("sat.queries", l.queries as f64, "count"),
        metric("sat.conflicts", l.conflicts as f64, "count"),
        metric("sat.propagations", l.propagations as f64, "count"),
        metric("learner.e2e_ms", ms(e2e), "ms"),
        metric("learner.overhead_ms", overhead, "ms"),
        metric("learner.speculative_share", share, "share"),
        metric("learner.cancelled_solves", trace.cancelled as f64, "count"),
        metric("learner.usb_slot_ms", system_ms(System::UsbSlot), "ms"),
        metric("learner.usb_attach_ms", system_ms(System::UsbAttach), "ms"),
        metric("learner.counter_ms", system_ms(System::Counter), "ms"),
        metric("learner.serial_ms", system_ms(System::SerialPort), "ms"),
        metric("learner.rtlinux_ms", system_ms(System::LinuxKernel), "ms"),
        metric("learner.integrator_ms", system_ms(System::Integrator), "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_learner_on_every_paper_system() {
        for input in paper_set(3) {
            let (model, _) = input.learn().unwrap();
            check_model(&input, &model).unwrap();
            let layers = replay(&input).unwrap();
            check_replay(&layers, &model.stats()).unwrap();
            assert_eq!(layers.states, model.num_states());
            assert!(layers.total() > Duration::ZERO);
        }
    }

    #[test]
    fn replay_equality_fails_on_a_mismatched_model() {
        let slot = LearnInput::generate(System::UsbSlot, 39, 5);
        let attach = LearnInput::generate(System::UsbAttach, 259, 5);
        let (slot_model, _) = slot.learn().unwrap();
        let attach_layers = replay(&attach).unwrap();
        assert!(check_replay(&attach_layers, &slot_model.stats()).is_err());
        // And the model check rejects a model under another system's name.
        let misnamed = LearnInput {
            system: System::UsbAttach,
            ..slot
        };
        assert!(check_model(&misnamed, &slot_model).is_err());
    }
}
