//! The learner's state-count search: the accepted count is the minimum, and
//! exhausted budgets end the search with a deterministic typed error.
//!
//! CI runs this suite in release mode alongside the debug `cargo test` run.

use std::time::{Duration, Instant};
use tracelearn::prelude::*;

/// Three independently seeded runs of a workload, merged into one set.
fn workload_set(workload: Workload) -> TraceSet {
    let length = match workload {
        Workload::UsbSlot => 39,
        Workload::UsbAttach => 259,
        Workload::Counter => 300,
        Workload::SerialPort => 600,
        Workload::LinuxKernel => 1200,
        Workload::Integrator => 1500,
    };
    let traces: Vec<Trace> = [1u64, 2, 3]
        .iter()
        .map(|&seed| workload.generate_seeded(length, 0xDAC2020 + seed))
        .collect();
    TraceSet::from_traces(traces.iter()).expect("shards share a signature")
}

fn config_for(workload: Workload) -> LearnerConfig {
    match workload {
        Workload::Integrator => LearnerConfig::default().with_input_variable("ip"),
        _ => LearnerConfig::default(),
    }
}

#[test]
fn accepted_state_count_is_minimal() {
    // Counts are tried in ascending order, so the accepted one is the
    // minimum: a search capped just under it must find no automaton.
    for workload in [Workload::Counter, Workload::LinuxKernel] {
        let set = workload_set(workload);
        let config = config_for(workload);
        let model = Learner::new(config.clone())
            .learn_many(&set)
            .expect("the search learns");
        assert!(
            model.num_states() > config.initial_states,
            "{}: the check needs a count below the answer",
            workload.name()
        );
        let mut capped = config.clone();
        capped.max_states = model.num_states() - 1;
        match Learner::new(capped).learn_many(&set) {
            Err(LearnError::NoAutomaton { max_states }) => {
                assert_eq!(max_states, model.num_states() - 1)
            }
            other => panic!(
                "{}: a smaller automaton should not exist, got {other:?}",
                workload.name()
            ),
        }
    }
}

#[test]
fn conflict_budget_exhaustion_is_a_deterministic_error() {
    // A conflict budget too small to decide anything: the search stops at
    // the first undecided count, promptly, and at the same point every run.
    let set = workload_set(Workload::LinuxKernel);
    let mut tiny = config_for(Workload::LinuxKernel);
    tiny.max_conflicts = Some(1);
    let start = Instant::now();
    let first = Learner::new(tiny.clone()).learn_many(&set);
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "the exhausted search did not stop promptly"
    );
    let second = Learner::new(tiny).learn_many(&set);
    match (first, second) {
        (
            Err(LearnError::BudgetExhausted { resource: a }),
            Err(LearnError::BudgetExhausted { resource: b }),
        ) => {
            assert!(a.contains("conflict budget"), "{a}");
            assert_eq!(a, b, "both runs must fail at the same point");
        }
        other => panic!("expected matching budget errors, got {other:?}"),
    }
}

#[test]
fn time_budget_exhaustion_is_a_deterministic_error() {
    let set = workload_set(Workload::Counter);
    let config = config_for(Workload::Counter).with_time_budget(Duration::from_nanos(1));
    let first = Learner::new(config.clone()).learn_many(&set);
    let second = Learner::new(config).learn_many(&set);
    match (first, second) {
        (
            Err(LearnError::BudgetExhausted { resource: a }),
            Err(LearnError::BudgetExhausted { resource: b }),
        ) => {
            assert!(a.contains("wall-clock budget"), "{a}");
            assert_eq!(a, b);
        }
        other => panic!("expected matching budget errors, got {other:?}"),
    }
}
