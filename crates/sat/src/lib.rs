//! A self-contained CDCL SAT solver and CNF construction toolkit.
//!
//! The DAC 2020 paper queries CBMC with a C program whose assertion failure
//! witnesses encode candidate automata. CBMC's role there is purely that of a
//! finite-domain constraint solver, so this crate provides the equivalent
//! substrate: propositional formulas are built with [`Cnf`], solved with the
//! conflict-driven clause-learning [`Solver`], and a satisfying [`Model`] is
//! decoded back into an automaton by the `tracelearn-core` crate.
//!
//! The solver implements the standard modern architecture: two-watched-literal
//! propagation, first-UIP conflict analysis with clause learning, VSIDS-style
//! activity-ordered decisions, phase saving and Luby restarts. It is complete
//! (always answers SAT or UNSAT) unless a resource [`Limits`] budget is given,
//! in which case it may answer [`SatResult::Unknown`].
//!
//! # Incremental solving
//!
//! A [`Solver`] is designed to be *reused* across a sequence of related
//! queries, which is how the learner's refinement loop drives it:
//!
//! * [`Solver::add_clause`] grows the formula between solve calls; learnt
//!   clauses from earlier calls are kept and prune the later searches (an
//!   LBD-first database reduction evicts the least useful half on a
//!   geometric schedule, so long runs stay bounded).
//! * [`Limits`] are accounted **per call**: every
//!   [`Solver::solve_with_limits`] call measures its conflict and
//!   propagation budget from its own entry point, so a reused solver is
//!   never charged for work done by earlier calls.
//!   [`Solver::last_call_stats`] reports the per-call counters.
//!
//! # Example
//!
//! ```
//! use tracelearn_sat::{Cnf, Lit, SatResult, Solver};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([Lit::positive(a), Lit::positive(b)]);
//! cnf.add_clause([Lit::negative(a)]);
//!
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve() {
//!     SatResult::Sat(model) => {
//!         assert!(!model.value(a));
//!         assert!(model.value(b));
//!     }
//!     _ => panic!("formula is satisfiable"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod dimacs;
mod lit;
mod model;
mod solver;

pub use crate::cnf::Cnf;
pub use crate::dimacs::{from_dimacs, to_dimacs, ParseDimacsError};
pub use crate::lit::{Lit, Var};
pub use crate::model::Model;
pub use crate::solver::{Limits, SatResult, Solver, SolverStats, LBD_BUCKETS};
