//! End-to-end and per-layer benchmark of the system's two paths:
//!
//! * **learning** — CSV trace bytes → [`tracelearn_core::Learner::learn_streamed`]
//!   → a minimal automaton;
//! * **serving** — protocol bytes → [`tracelearn_serve::serve_commands`] →
//!   verdict lines.
//!
//! `perfbench-timed` measures the end-to-end metrics with no
//! instrumentation inside the measured calls; `perfbench-traced` carries a
//! counting allocator and replays each path layer by layer from this crate's
//! own code. `run.py` builds both and runs one workload; `README.md` says why
//! each workload exists and how the metrics are defined.

pub mod alloc;
pub mod cli;
pub mod inputs;
pub mod learn;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod stall;
pub mod stats;
