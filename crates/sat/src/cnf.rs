//! CNF formula construction.

use crate::lit::{Lit, Var};

/// A propositional formula in conjunctive normal form, under construction.
///
/// `Cnf` is the interface used by the automaton encoder: allocate variables,
/// add clauses, and use the cardinality helpers for one-hot state encodings.
///
/// The clauses are stored flat: every literal in one buffer, in clause
/// order, plus the end offset of each clause. Adding a clause appends to
/// both buffers and never allocates a clause of its own, so building a
/// formula of hundreds of thousands of clauses costs a few dozen buffer
/// growths, and [`Cnf::clauses`] hands each clause out as a slice.
///
/// # Example
///
/// ```
/// use tracelearn_sat::{Cnf, Lit, SatResult, Solver};
///
/// let mut cnf = Cnf::new();
/// let bits: Vec<_> = (0..4).map(|_| cnf.new_var()).collect();
/// cnf.exactly_one(&bits.iter().map(|&v| Lit::positive(v)).collect::<Vec<_>>());
/// let result = Solver::from_cnf(&cnf).solve();
/// assert!(matches!(result, SatResult::Sat(_)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    /// The literals of every clause, back to back.
    lits: Vec<Lit>,
    /// The end offset in `lits` of each clause; clause `i` starts where
    /// clause `i − 1` ends.
    ends: Vec<u32>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Creates an empty formula over `num_vars` fresh variables, numbered
    /// from zero.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` does not fit in `u32`.
    pub fn with_vars(num_vars: usize) -> Self {
        assert!(
            u32::try_from(num_vars).is_ok(),
            "variable count fits in u32"
        );
        Cnf {
            num_vars,
            ..Cnf::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var::new(u32::try_from(self.num_vars).expect("variable count fits in u32"));
        self.num_vars += 1;
        var
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// The clauses added so far, in the order they were added.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
            &self.lits[start..self.ends[i] as usize]
        })
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// An empty clause makes the formula trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that has not been allocated.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let start = self.lits.len();
        self.lits.extend(lits);
        for lit in &self.lits[start..] {
            assert!(
                lit.var().index() < self.num_vars,
                "literal {lit} refers to an unallocated variable"
            );
        }
        let end = u32::try_from(self.lits.len()).expect("literal count fits in u32");
        self.ends.push(end);
    }

    /// Adds the implication `premise → conclusion` as a clause.
    pub fn implies(&mut self, premise: Lit, conclusion: Lit) {
        self.add_clause([!premise, conclusion]);
    }

    /// Adds `premise₁ ∧ premise₂ → conclusion`.
    pub fn implies2(&mut self, premise1: Lit, premise2: Lit, conclusion: Lit) {
        self.add_clause([!premise1, !premise2, conclusion]);
    }

    /// Adds the bi-implication `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) {
        self.implies(a, b);
        self.implies(b, a);
    }

    /// Requires at least one of `lits` to hold.
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }

    /// Requires at most one of `lits` to hold (pairwise encoding).
    ///
    /// Pairwise encoding is quadratic in the number of literals; the one-hot
    /// groups in the automaton encoding are small (the number of automaton
    /// states), so this is the right trade-off versus auxiliary variables.
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.add_clause([!lits[i], !lits[j]]);
            }
        }
    }

    /// Requires exactly one of `lits` to hold.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// Forbids the conjunction of all `lits` (adds the clause of negations).
    pub fn forbid_all(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().map(|&l| !l));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SatResult, Solver};

    fn solve(cnf: &Cnf) -> SatResult {
        Solver::from_cnf(cnf).solve()
    }

    #[test]
    fn allocation_and_counts() {
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(3);
        assert_eq!(cnf.num_vars(), 3);
        cnf.add_clause([Lit::positive(vars[0])]);
        cnf.add_clause([]);
        cnf.add_clause([Lit::negative(vars[2]), Lit::positive(vars[1])]);
        assert_eq!(cnf.num_clauses(), 3);
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            clauses,
            [
                &[Lit::positive(vars[0])][..],
                &[],
                &[Lit::negative(vars[2]), Lit::positive(vars[1])],
            ]
        );
    }

    #[test]
    fn with_vars_allocates_like_new_var() {
        let mut cnf = Cnf::with_vars(3);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 0);
        assert_eq!(cnf.new_var(), Var::new(3));
        cnf.add_clause([Lit::negative(Var::new(2))]);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_variable_panics() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Lit::positive(Var::new(5))]);
    }

    #[test]
    fn exactly_one_is_satisfiable_with_exactly_one_true() {
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(5);
        let lits: Vec<Lit> = vars.iter().map(|&v| Lit::positive(v)).collect();
        cnf.exactly_one(&lits);
        match solve(&cnf) {
            SatResult::Sat(model) => {
                let count = vars.iter().filter(|&&v| model.value(v)).count();
                assert_eq!(count, 1);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn at_most_one_conflicts_with_two_forced() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.at_most_one(&[Lit::positive(a), Lit::positive(b)]);
        cnf.add_clause([Lit::positive(a)]);
        cnf.add_clause([Lit::positive(b)]);
        assert!(matches!(solve(&cnf), SatResult::Unsat));
    }

    #[test]
    fn implications_chain() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.implies(Lit::positive(a), Lit::positive(b));
        cnf.implies(Lit::positive(b), Lit::positive(c));
        cnf.add_clause([Lit::positive(a)]);
        match solve(&cnf) {
            SatResult::Sat(model) => {
                assert!(model.value(a) && model.value(b) && model.value(c));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn iff_links_values() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.iff(Lit::positive(a), Lit::negative(b));
        cnf.add_clause([Lit::positive(a)]);
        match solve(&cnf) {
            SatResult::Sat(model) => assert!(model.value(a) && !model.value(b)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn implies2_and_forbid_all() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.implies2(Lit::positive(a), Lit::positive(b), Lit::positive(c));
        cnf.forbid_all(&[Lit::positive(a), Lit::positive(b), Lit::positive(c)]);
        cnf.add_clause([Lit::positive(a)]);
        match solve(&cnf) {
            SatResult::Sat(model) => {
                // a is true, so b must be false (otherwise c both forced and forbidden).
                assert!(model.value(a));
                assert!(!model.value(b));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        let _ = cnf.new_var();
        cnf.add_clause([]);
        assert!(matches!(solve(&cnf), SatResult::Unsat));
    }
}
