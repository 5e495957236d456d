//! Reading and writing formulas in the DIMACS CNF interchange format.
//!
//! DIMACS support exists mainly so that encodings produced by the learner can
//! be dumped for inspection or cross-checked against external solvers, and so
//! that standard benchmark instances can be replayed against the solver in
//! tests.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use std::error::Error;
use std::fmt;

/// Error raised when parsing a DIMACS file fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// One-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimacs parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseDimacsError {}

/// Serialises a formula to DIMACS CNF text.
///
/// # Example
///
/// ```
/// use tracelearn_sat::{to_dimacs, Cnf, Lit};
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var();
/// let b = cnf.new_var();
/// cnf.add_clause([Lit::positive(a), Lit::negative(b)]);
/// let text = to_dimacs(&cnf);
/// assert!(text.starts_with("p cnf 2 1"));
/// ```
pub fn to_dimacs(cnf: &Cnf) -> String {
    let mut out = format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.clauses() {
        for lit in clause {
            let v = lit.var().index() as i64 + 1;
            let signed = if lit.is_positive() { v } else { -v };
            out.push_str(&signed.to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

/// Parses a DIMACS CNF file into a [`Cnf`].
///
/// # Errors
///
/// Returns [`ParseDimacsError`] for malformed headers, literals outside the
/// declared variable range, or clauses missing their terminating `0`.
pub fn from_dimacs(text: &str) -> Result<Cnf, ParseDimacsError> {
    let mut cnf = Cnf::new();
    let mut declared_vars: Option<usize> = None;
    let mut current_clause: Vec<Lit> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 3 || fields[0] != "cnf" {
                return Err(ParseDimacsError {
                    line: line_no,
                    message: "header must be `p cnf <vars> <clauses>`".to_owned(),
                });
            }
            let vars: usize = fields[1].parse().map_err(|_| ParseDimacsError {
                line: line_no,
                message: "variable count is not a number".to_owned(),
            })?;
            declared_vars = Some(vars);
            cnf.new_vars(vars);
            continue;
        }
        let declared = declared_vars.ok_or_else(|| ParseDimacsError {
            line: line_no,
            message: "clause before `p cnf` header".to_owned(),
        })?;
        for token in line.split_whitespace() {
            let value: i64 = token.parse().map_err(|_| ParseDimacsError {
                line: line_no,
                message: format!("`{token}` is not a literal"),
            })?;
            if value == 0 {
                cnf.add_clause(current_clause.drain(..));
            } else {
                let var_index = value.unsigned_abs() as usize - 1;
                if var_index >= declared {
                    return Err(ParseDimacsError {
                        line: line_no,
                        message: format!("literal {value} exceeds declared variable count"),
                    });
                }
                let var = Var::new(var_index as u32);
                current_clause.push(Lit::new(var, value > 0));
            }
        }
    }
    if !current_clause.is_empty() {
        return Err(ParseDimacsError {
            line: text.lines().count(),
            message: "last clause is not terminated by 0".to_owned(),
        });
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SatResult, Solver};

    #[test]
    fn round_trip() {
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(3);
        cnf.add_clause([Lit::positive(vars[0]), Lit::negative(vars[1])]);
        cnf.add_clause([Lit::positive(vars[2])]);
        let text = to_dimacs(&cnf);
        let parsed = from_dimacs(&text).unwrap();
        assert_eq!(parsed.num_vars(), 3);
        assert_eq!(parsed.num_clauses(), 2);
        assert!(parsed.clauses().eq(cnf.clauses()));
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n";
        let cnf = from_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(from_dimacs("1 2 0\n").is_err());
    }

    #[test]
    fn rejects_bad_header_and_literals() {
        assert!(from_dimacs("p cnf x 1\n").is_err());
        assert!(from_dimacs("p dnf 1 1\n").is_err());
        assert!(from_dimacs("p cnf 1 1\n2 0\n").is_err());
        assert!(from_dimacs("p cnf 1 1\nfoo 0\n").is_err());
        assert!(from_dimacs("p cnf 1 1\n1\n").is_err());
    }

    #[test]
    fn parsed_instance_is_solvable() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (¬x2 ∨ x3)
        let text = "p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n";
        let cnf = from_dimacs(text).unwrap();
        match Solver::from_cnf(&cnf).solve() {
            SatResult::Sat(model) => {
                assert!(model.value(Var::new(1)));
                assert!(model.value(Var::new(2)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        let err = from_dimacs("p cnf 1 1\n2 0\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }
}
