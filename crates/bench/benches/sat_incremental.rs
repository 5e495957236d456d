//! From-scratch vs incremental SAT refinement (the learner's Phase-3 loop).
//!
//! Both variants run the full compliance-refinement search for the smallest
//! automaton on a workload's unique windows. The from-scratch variant
//! rebuilds the CNF and a brand-new solver for every refinement round (the
//! seed behaviour); the incremental variant, the learner's search, builds
//! one base encoding and one solver per candidate state count and feeds it
//! only the delta clauses of newly forbidden sequences, reusing learnt
//! clauses across rounds. Both run on the predicate sequence the learner
//! itself extracts. With `--json <path>` or `TRACELEARN_BENCH_JSON=<path>`
//! the median wall time of [`JSON_RUNS`] runs per strategy and input is
//! written as machine-readable JSON.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;
use tracelearn_bench::report::{write_if_requested, BenchRecord};
use tracelearn_core::compliance::invalid_sequences;
use tracelearn_core::encoding::AutomatonEncoder;
use tracelearn_core::{Learner, LearnerConfig, PredId};
use tracelearn_sat::{SatResult, Solver};
use tracelearn_trace::unique_windows;
use tracelearn_workloads::Workload;

const WINDOW: usize = 3;
const COMPLIANCE_LENGTH: usize = 2;
const MAX_STATES: usize = 16;
/// Timed runs per strategy and input behind each JSON record. One run on a
/// shared host spreads too widely to serve as a gate baseline, so the
/// record holds the median.
const JSON_RUNS: usize = 5;

struct Prepared {
    name: &'static str,
    sequence: Vec<PredId>,
    windows: Vec<Vec<PredId>>,
}

fn prepare(workload: Workload, length: usize, name: &'static str) -> Prepared {
    let trace = workload.generate(length);
    let model = Learner::new(LearnerConfig::default().with_window(WINDOW))
        .learn(&trace)
        .expect("learnable");
    let sequence = model.predicate_sequence().to_vec();
    let windows = unique_windows(&sequence, WINDOW);
    Prepared {
        name,
        sequence,
        windows,
    }
}

/// The seed's refinement loop: fresh CNF + fresh solver every round.
fn refine_from_scratch(input: &Prepared) -> usize {
    for num_states in 2..=MAX_STATES {
        let mut encoder = AutomatonEncoder::new(input.windows.clone(), num_states);
        loop {
            let encoding = encoder.encode();
            match Solver::from_cnf(&encoding.cnf).solve() {
                SatResult::Unsat => break,
                SatResult::Unknown => unreachable!("no limits were set"),
                SatResult::Sat(model) => {
                    let candidate = encoding.decode(&input.windows, &model);
                    let violations =
                        invalid_sequences(&candidate, &input.sequence, COMPLIANCE_LENGTH);
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

/// The incremental loop: one solver per state count, delta clauses only.
fn refine_incremental(input: &Prepared) -> usize {
    let mut encoder = AutomatonEncoder::new(input.windows.clone(), 2);
    for num_states in 2..=MAX_STATES {
        encoder.set_num_states(num_states);
        let encoding = encoder.encode_base();
        let mut solver = Solver::from_cnf(&encoding.cnf);
        loop {
            match solver.solve() {
                SatResult::Unsat => break,
                SatResult::Unknown => unreachable!("no limits were set"),
                SatResult::Sat(model) => {
                    let candidate = encoding.decode(encoder.windows(), &model);
                    let violations =
                        invalid_sequences(&candidate, &input.sequence, COMPLIANCE_LENGTH);
                    if violations.is_empty() {
                        return num_states;
                    }
                    for violation in violations {
                        encoder.forbid_sequence(violation);
                    }
                    for clause in encoder.delta_clauses(&encoding) {
                        solver.add_clause(clause);
                    }
                }
            }
        }
    }
    panic!("no automaton within the state bound");
}

type Refiner = fn(&Prepared) -> usize;

const STRATEGIES: [(&str, Refiner); 2] = [
    ("from_scratch", refine_from_scratch),
    ("incremental", refine_incremental),
];

fn bench_refinement(c: &mut Criterion) {
    let inputs = [
        prepare(Workload::LinuxKernel, 1024, "rtlinux"),
        prepare(Workload::UsbAttach, 259, "usb_attach"),
    ];
    let mut group = c.benchmark_group("sat/refinement");
    for input in &inputs {
        for (strategy, refine) in STRATEGIES {
            group.bench_with_input(BenchmarkId::new(strategy, input.name), input, |b, input| {
                b.iter(|| refine(std::hint::black_box(input)))
            });
        }
        // Both strategies must agree on the minimal state count.
        assert_eq!(refine_from_scratch(input), refine_incremental(input));
    }
    group.finish();

    // The median of JSON_RUNS timed runs per strategy per input for the
    // JSON trajectory — only when an output path was actually requested.
    if tracelearn_bench::report::requested_path().is_none() {
        return;
    }
    let mut records = Vec::new();
    for input in &inputs {
        for (strategy, refine) in STRATEGIES {
            let mut walls = Vec::with_capacity(JSON_RUNS);
            let mut states = 0;
            for _ in 0..JSON_RUNS {
                let start = Instant::now();
                states = refine(input);
                walls.push(start.elapsed());
            }
            walls.sort_unstable();
            records.push(
                BenchRecord::new(format!("{strategy}/{}", input.name), walls[JSON_RUNS / 2])
                    .with_extra("states", states)
                    .with_extra("windows", input.windows.len())
                    .with_extra("runs", JSON_RUNS),
            );
        }
    }
    write_if_requested("sat_incremental", &records);
}

criterion_group!(benches, bench_refinement);
criterion_main!(benches);
