//! Cross-crate integration tests: the full pipeline (workload simulator →
//! predicate synthesis → SAT-based construction → compliance) on each of the
//! paper's benchmarks at reduced scale.

use tracelearn::learn::compliance::is_compliant;
use tracelearn::learn::{PredId, PredicateAlphabet, WindowAbstractor};
use tracelearn::prelude::*;
use tracelearn::trace::unique_windows;

fn learner_for(workload: Workload) -> Learner {
    let config = LearnerConfig::default();
    let config = match workload {
        Workload::Integrator => config.with_input_variable("ip"),
        _ => config,
    };
    Learner::new(config)
}

/// Learns a model for `workload` at the given scale and runs the structural
/// checks every learned model must satisfy.
fn learn_and_check(workload: Workload, length: usize) -> tracelearn::learn::LearnedModel {
    let trace = workload.generate(length);
    let model = learner_for(workload)
        .learn(&trace)
        .unwrap_or_else(|e| panic!("{} failed to learn: {e}", workload.name()));
    // Structural invariants from the paper's formulation.
    assert!(
        model.automaton().is_deterministic(),
        "{}: at most one successor per (state, predicate)",
        workload.name()
    );
    assert!(
        is_compliant(model.automaton(), model.predicate_sequence(), 2),
        "{}: compliance must hold on the returned model",
        workload.name()
    );
    for window in unique_windows(model.predicate_sequence(), 3) {
        assert!(
            model.automaton().accepts_from_any_state(&window),
            "{}: every unique window must be embedded",
            workload.name()
        );
    }
    // All states are reachable… from somewhere: no isolated junk states.
    assert!(model.num_states() >= 1);
    assert!(model.num_transitions() >= model.automaton().labels().len());
    model
}

#[test]
fn usb_slot_model_matches_paper_size() {
    let model = learn_and_check(Workload::UsbSlot, 39);
    assert!(
        (3..=5).contains(&model.num_states()),
        "expected about 4 states (paper: 4), got {}",
        model.num_states()
    );
    let predicates = model.predicate_strings();
    assert!(
        predicates.iter().any(|p| p.contains("CR_CONFIG_END")),
        "{predicates:?}"
    );
}

#[test]
fn usb_attach_model_is_concise() {
    let model = learn_and_check(Workload::UsbAttach, 259);
    assert!(
        (4..=10).contains(&model.num_states()),
        "expected about 7 states (paper: 7), got {}",
        model.num_states()
    );
    let predicates = model.predicate_strings();
    assert!(
        predicates.iter().any(|p| p.contains("xhci_ring_fetch")),
        "{predicates:?}"
    );
    assert!(
        predicates.iter().any(|p| p.contains("CCSuccess")),
        "{predicates:?}"
    );
}

#[test]
fn counter_model_has_four_states_and_threshold_predicates() {
    let model = learn_and_check(Workload::Counter, 447);
    assert_eq!(model.num_states(), 4, "paper reports 4 states");
    let predicates = model.predicate_strings();
    assert!(
        predicates.iter().any(|p| p.contains("x + 1")),
        "{predicates:?}"
    );
    assert!(
        predicates.iter().any(|p| p.contains("x - 1")),
        "{predicates:?}"
    );
    // The threshold constant 128 is discovered by synthesis.
    assert!(
        predicates
            .iter()
            .any(|p| p.contains("127") || p.contains("128")),
        "{predicates:?}"
    );
}

#[test]
fn serial_port_model_is_concise_and_pairs_ops_with_updates() {
    let model = learn_and_check(Workload::SerialPort, 1024);
    assert!(
        (2..=8).contains(&model.num_states()),
        "expected a handful of states (paper: 6), got {}",
        model.num_states()
    );
    let predicates = model.predicate_strings();
    assert!(
        predicates
            .iter()
            .any(|p| p.contains("write") && p.contains("x + 1")),
        "{predicates:?}"
    );
    assert!(
        predicates
            .iter()
            .any(|p| p.contains("reset") && p.contains("x' = 0")),
        "{predicates:?}"
    );
}

#[test]
fn rtlinux_model_covers_the_scheduler_alphabet() {
    let model = learn_and_check(Workload::LinuxKernel, 2048);
    assert!(
        (4..=10).contains(&model.num_states()),
        "expected about 8 states (paper: 8), got {}",
        model.num_states()
    );
    let predicates = model.predicate_strings();
    for event in ["sched_waking", "sched_switch_in", "set_state_sleepable"] {
        assert!(
            predicates.iter().any(|p| p.contains(event)),
            "missing {event}: {predicates:?}"
        );
    }
    // The incremental refinement loop constructs exactly one solver per
    // candidate state count (the default search starts at 2 states).
    let stats = model.stats();
    assert_eq!(
        stats.solvers_constructed,
        stats.states - 1,
        "expected one solver per candidate state count: {stats:?}"
    );
}

#[test]
fn integrator_model_is_tiny_and_has_the_integration_predicate() {
    let model = learn_and_check(Workload::Integrator, 2048);
    assert!(
        (2..=6).contains(&model.num_states()),
        "expected about 3 states (paper: 3), got {}",
        model.num_states()
    );
    let predicates = model.predicate_strings();
    assert!(
        predicates
            .iter()
            .any(|p| p.contains("op + ip") || p.contains("ip + op")),
        "{predicates:?}"
    );
    assert!(
        predicates.iter().any(|p| p.contains("op' = 0")),
        "{predicates:?}"
    );
    // The free input is never constrained.
    assert!(
        predicates.iter().all(|p| !p.contains("ip'")),
        "{predicates:?}"
    );
}

#[test]
fn learned_models_are_far_smaller_than_the_trace() {
    for workload in [
        Workload::Counter,
        Workload::SerialPort,
        Workload::LinuxKernel,
    ] {
        let length = 1024;
        let model = learn_and_check(workload, length);
        assert!(
            model.num_states() * 20 < length,
            "{}: {} states is not concise",
            workload.name(),
            model.num_states()
        );
    }
}

#[test]
fn stats_are_populated() {
    let trace = Workload::Counter.generate(256);
    let model = learner_for(Workload::Counter).learn(&trace).unwrap();
    let stats = model.stats();
    assert_eq!(stats.trace_length, 256);
    assert_eq!(stats.predicate_count, 254);
    assert!(stats.alphabet_size >= 3);
    assert!(stats.solver_windows < stats.predicate_count);
    assert!(stats.sat_queries >= 1);
    assert!(stats.solvers_constructed >= 1);
    assert!(stats.sat_queries >= stats.solvers_constructed);
    assert_eq!(stats.states, model.num_states());
    assert!(stats.total_time >= stats.solver_time);
}

/// The learner's predicate sequence and alphabet are exactly the per-window
/// extraction: an abstractor calibrated on the trace maps every window, in
/// order, into a fresh alphabet. The benches and tests that take their
/// solver windows from `Learner::learn` rely on this.
#[test]
fn learned_predicate_sequence_is_the_per_window_extraction() {
    for workload in Workload::all() {
        let trace = workload.generate_paper_scale();
        let learner = learner_for(workload);
        let model = learner
            .learn(&trace)
            .unwrap_or_else(|e| panic!("{} failed to learn: {e}", workload.name()));

        let config = learner.config();
        let mut abstractor = WindowAbstractor::from_calibration(
            &trace,
            config.window,
            config.synthesis.clone(),
            &config.input_variables,
        )
        .unwrap();
        let mut alphabet = PredicateAlphabet::new();
        let sequence: Vec<PredId> = trace
            .observations()
            .windows(config.window)
            .map(|window| abstractor.predicate_id(window, &mut alphabet))
            .collect();

        assert_eq!(
            model.predicate_sequence(),
            sequence.as_slice(),
            "{}",
            workload.name()
        );
        assert_eq!(model.alphabet(), &alphabet, "{}", workload.name());
    }
}
