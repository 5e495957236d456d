//! Learns the anti-windup integrator model (paper Fig. 4) and uses it as a
//! runtime monitor: the learned automaton replays a fresh trace and flags any
//! window it cannot explain.
//!
//! ```text
//! cargo run --example integrator_model
//! ```

use std::error::Error;
use tracelearn::prelude::*;
use tracelearn::workloads::integrator;

fn main() -> Result<(), Box<dyn Error>> {
    let config = integrator::IntegratorConfig {
        length: 4096,
        saturation: 5,
        reset_period: 256,
        seed: 41,
    };
    let trace = integrator::generate(&config);

    // `ip` is a free input: declare it so no update predicate is synthesised
    // for it (the learner would also detect this automatically).
    let learner_config = LearnerConfig::default().with_input_variable("ip");
    let model = Learner::new(learner_config.clone()).learn(&trace)?;

    println!(
        "learned {} states / {} transitions from {} observations (paper: 3 states)",
        model.num_states(),
        model.num_transitions(),
        trace.len()
    );
    println!("\ntransition predicates:");
    for predicate in model.predicate_strings() {
        println!("  {predicate}");
    }

    // Use the model as a monitor on a fresh trace from the same system: every
    // unique window of the fresh predicate sequence should be explainable.
    let fresh = integrator::generate(&integrator::IntegratorConfig { seed: 99, ..config });
    let report = Monitor::new(&model, learner_config).check(&fresh)?;
    println!(
        "\nmonitoring a fresh trace (seed 99): {} unexplained windows out of {}",
        report.deviations.len(),
        report.windows_checked
    );
    Ok(())
}
