//! Execution-trace data model for the `tracelearn` workspace.
//!
//! A *trace* is a finite sequence of *observations*; each observation is a
//! [`Valuation`] of a fixed, user-chosen set of variables (the trace
//! [`Signature`]). Variables range over integers, booleans or interned
//! symbolic events. This mirrors the formal model of the DAC 2020 paper
//! *Learning Concise Models from Long Execution Traces*: a symbol of the
//! learned automaton's alphabet is a pair of consecutive observations
//! (a [`StepPair`]), giving values to the unprimed variables `X` and the
//! primed variables `X'`.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use tracelearn_trace::{Signature, Trace, Value};
//!
//! // A counter observed through a single integer variable `x`.
//! let sig = Signature::builder().int("x").build();
//! let mut trace = Trace::new(sig);
//! for v in [1i64, 2, 3, 4, 3, 2, 1] {
//!     trace.push_row([Value::Int(v)])?;
//! }
//! assert_eq!(trace.len(), 7);
//! assert_eq!(trace.steps().count(), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod csv;
mod error;
mod idhash;
mod signature;
mod stats;
mod stream;
mod symbol;
mod trace;
mod traceset;
mod valuation;
mod value;
mod window;

pub use crate::collector::WindowCollector;
pub use crate::csv::{parse_csv, to_csv, write_csv, CsvWriter};
pub use crate::error::TraceError;
pub use crate::idhash::{IdBuildHasher, IdHasher};
pub use crate::signature::{Signature, SignatureBuilder, VarId, VarKind, Variable};
pub use crate::stats::{TraceStats, VarStats};
pub use crate::stream::{CsvRecordDecoder, StreamingCsvReader};
pub use crate::symbol::{SymbolId, SymbolTable};
pub use crate::trace::{RowEntry, StepPair, Steps, Trace, Windows};
pub use crate::traceset::TraceSet;
pub use crate::valuation::Valuation;
pub use crate::value::Value;
pub use crate::window::{subsequences, unique_windows, windows_of};
