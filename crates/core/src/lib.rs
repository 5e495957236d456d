//! The model-learning algorithm of *Learning Concise Models from Long
//! Execution Traces* (DAC 2020).
//!
//! The learner combines three ingredients, each provided by a sibling crate
//! of this workspace and orchestrated here:
//!
//! 1. **Transition-predicate synthesis** ([`predicates`]): every sliding
//!    window of the trace is abstracted into a predicate over `X ∪ X'` using
//!    the `tracelearn-synth` engines — update functions such as `x' = x + 1`,
//!    conditional updates at behaviour changes, and event atoms.
//! 2. **Trace segmentation** ([`Learner`] with `segmented = true`): the
//!    predicate sequence is cut into overlapping windows of length `w` and
//!    only *unique* windows are kept, which is what makes the approach scale
//!    to long traces (paper §V).
//! 3. **SAT-based model construction** ([`encoding`]): the existence of an
//!    `N`-state automaton that embeds every unique window as a path and has
//!    at most one successor per (state, predicate) pair is encoded into CNF
//!    and decided by the `tracelearn-sat` CDCL solver (the paper uses CBMC
//!    for the same query). `N` is increased until an automaton exists; a
//!    compliance check ([`compliance`]) over length-`l` paths drives a
//!    refinement loop that excludes invalid generalisations.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use tracelearn_core::{Learner, LearnerConfig};
//! use tracelearn_trace::{Signature, Trace, Value};
//!
//! // A tiny counter that oscillates between 1 and 4.
//! let sig = Signature::builder().int("x").build();
//! let mut trace = Trace::new(sig);
//! let mut x = 1i64;
//! let mut direction = 1i64;
//! for _ in 0..60 {
//!     trace.push_row([Value::Int(x)])?;
//!     if x >= 4 { direction = -1 } else if x <= 1 { direction = 1 }
//!     x += direction;
//! }
//!
//! let model = Learner::new(LearnerConfig::default()).learn(&trace)?;
//! assert!(model.num_states() <= 4);
//! // The learned predicates include the increment update.
//! assert!(model.predicate_strings().iter().any(|p| p.contains("x + 1")));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compliance;
pub mod encoding;
pub mod monitor;
pub mod predicates;
pub mod replay;

mod error;
mod learner;

pub use crate::compliance::ComplianceChecker;
pub use crate::error::LearnError;
pub use crate::learner::{learn_with_defaults, LearnStats, LearnedModel, Learner, LearnerConfig};
pub use crate::monitor::{
    Deviation, DeviationKind, Monitor, MonitorReport, MonitorSession, SessionCheckpoint,
    SessionFootprint, Verdict, DEFAULT_CALIBRATION_EVENTS,
};
pub use crate::predicates::{PredId, PredicateAlphabet, WindowAbstractor};
pub use crate::replay::ReplayLog;
