//! CNF encoding of the "does an N-state automaton exist" query.
//!
//! The paper encodes the query as a C program whose assertion failure
//! witnesses are automata and hands it to CBMC; here the same constraint
//! system is encoded directly into CNF and decided by the workspace's CDCL
//! solver. The encoding is linear in the total number of window slots:
//!
//! * one-hot state variables `q[i][j][s]` for slot `j` of window `i`;
//! * successor-function variables `succ[s][p][t]`, at most one target per
//!   (state, predicate) pair — this is the paper's "no two transitions with
//!   the same source and label but different targets" constraint;
//! * linkage clauses `q[i][j][s] ∧ q[i][j+1][t] → succ[s][p][t]` forcing
//!   every window to be a path of the automaton;
//! * path-exclusion clauses for the invalid sequences discovered by the
//!   compliance check;
//! * BFS-order symmetry-breaking predicates over the state variables (the
//!   lowest-index state is initial, each new state is first reached from a
//!   lower-indexed point of the slot sequence), so the solver never
//!   re-explores a state relabelling of a candidate machine it has already
//!   ruled out.
//!
//! Variables are numbered arithmetically, not looked up. With `n` states,
//! an alphabet `Σ` (the predicates occurring in the windows, ranked in
//! ascending order) and the window slots numbered `g = 0, 1, …` across all
//! windows in order:
//!
//! * `succ(s, p, t) = (s·|Σ| + rank(p))·n + t`;
//! * `slot(g, s) = n·|Σ|·n + g·n + s`;
//! * `seen(g, s)`, the symmetry-breaking ladder, follows the last slot
//!   variable in the same `g·n + s` order.
//!
//! The encoder ranks the alphabet and counts the slots once, when it is
//! created, and each state count's formula is then written straight into
//! the flat clause buffer of a [`Cnf`] without hashing or a heap allocation
//! per clause. The clause order is fixed, so the same windows, state count
//! and forbidden sequences always give the solver the same formula.
//!
//! The decoded automaton contains exactly the transitions exercised by the
//! window slots, so unconstrained `succ` variables never introduce spurious
//! transitions.

use crate::predicates::PredId;
use tracelearn_automaton::{Nfa, StateId};
use tracelearn_sat::{Cnf, Lit, Model, Var};

/// Builder for the automaton-existence CNF.
///
/// The encoder supports an *incremental* protocol in addition to the one-shot
/// [`AutomatonEncoder::encode`]: build the base constraint system once per
/// state count with [`AutomatonEncoder::encode_base`], then after each
/// [`AutomatonEncoder::forbid_sequence`] batch pull only the new
/// path-exclusion clauses with [`AutomatonEncoder::delta_clauses`] and feed
/// them to an already-running solver.
#[derive(Debug, Clone)]
pub struct AutomatonEncoder {
    windows: Vec<Vec<PredId>>,
    /// The predicates occurring in the windows, in ascending order: a
    /// predicate's position here is its rank.
    alphabet: Vec<PredId>,
    /// `ranks[p.index()]`: the rank of `p`, `None` for a predicate outside
    /// the alphabet.
    ranks: Vec<Option<u32>>,
    /// The number of window slots: each window of length `k` has `k + 1`.
    num_slots: usize,
    num_states: usize,
    forbidden: Vec<Vec<PredId>>,
    /// How many entries of `forbidden` the last `encode_base` /
    /// `delta_clauses` call already turned into clauses.
    encoded_forbidden: usize,
    /// Whether [`AutomatonEncoder::encode_base`] emits the BFS-order
    /// symmetry-breaking predicates (on by default; the off switch exists
    /// for the SAT-equivalence tests and ablation benchmarks).
    symmetry_breaking: bool,
}

/// The variable layout of an encoded instance, needed to decode a model.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The CNF formula.
    pub cnf: Cnf,
    layout: Layout,
    /// The encoder's ranked alphabet.
    alphabet: Vec<PredId>,
}

/// The arithmetic variable numbering of one state count (see the module
/// documentation).
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The state count `n`.
    states: usize,
    /// The alphabet size `|Σ|`.
    alphabet: usize,
    /// The number of window slots.
    slots: usize,
}

impl Layout {
    /// `s --p--> t` is a transition, where `rank` is the rank of `p`.
    fn succ(self, s: usize, rank: usize, t: usize) -> Var {
        var((s * self.alphabet + rank) * self.states + t)
    }

    /// Slot `g` is in state `s`.
    fn slot(self, g: usize, s: usize) -> Var {
        var(self.succ_vars() + g * self.states + s)
    }

    /// Some slot at position ≤ `g` is in state `s`.
    fn seen(self, g: usize, s: usize) -> Var {
        var(self.succ_vars() + (self.slots + g) * self.states + s)
    }

    /// The number of successor variables, which come first.
    fn succ_vars(self) -> usize {
        self.states * self.alphabet * self.states
    }

    /// The number of variables of the formula: the successor variables,
    /// then `n` state variables per slot and, with symmetry breaking, `n`
    /// `seen` variables per slot.
    fn num_vars(self, symmetry_breaking: bool) -> usize {
        let per_slot = (1 + usize::from(symmetry_breaking)) * self.states;
        self.succ_vars() + self.slots * per_slot
    }

    /// The state slot `g` is in under `model`.
    fn state_of(self, g: usize, model: &Model) -> usize {
        (0..self.states)
            .find(|&s| model.value(self.slot(g, s)))
            .expect("exactly-one constraint guarantees a state")
    }
}

/// The variable with index `index`.
fn var(index: usize) -> Var {
    Var::new(u32::try_from(index).expect("variable count fits in u32"))
}

impl AutomatonEncoder {
    /// Creates an encoder for the given predicate windows and state count.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero or no window is given.
    pub fn new(windows: Vec<Vec<PredId>>, num_states: usize) -> Self {
        assert!(num_states > 0, "at least one state is required");
        assert!(!windows.is_empty(), "at least one window is required");
        let mut alphabet: Vec<PredId> = windows.iter().flatten().copied().collect();
        alphabet.sort_unstable();
        alphabet.dedup();
        let table_len = alphabet.last().map_or(0, |p| p.index() + 1);
        let mut ranks = vec![None; table_len];
        for (rank, p) in alphabet.iter().enumerate() {
            ranks[p.index()] = Some(u32::try_from(rank).expect("alphabet fits in u32"));
        }
        let num_slots = windows.iter().map(|window| window.len() + 1).sum();
        AutomatonEncoder {
            windows,
            alphabet,
            ranks,
            num_slots,
            num_states,
            forbidden: Vec::new(),
            encoded_forbidden: 0,
            symmetry_breaking: true,
        }
    }

    /// Enables or disables the BFS-order symmetry-breaking predicates (on by
    /// default). Turning them off leaves a *relabelling-closed* encoding:
    /// satisfiability is unchanged (every model of the broken encoding is a
    /// model of the unbroken one, and every unbroken model relabels into a
    /// broken one), but UNSAT answers must refute all `(k-1)!` state
    /// relabellings. Exists for equivalence tests and ablation runs.
    #[must_use]
    pub fn with_symmetry_breaking(mut self, on: bool) -> Self {
        self.symmetry_breaking = on;
        self
    }

    /// Whether the encoder emits symmetry-breaking predicates.
    pub fn symmetry_breaking(&self) -> bool {
        self.symmetry_breaking
    }

    /// Retargets the encoder to a different state count, keeping the windows
    /// and every registered forbidden sequence (path exclusions discovered at
    /// one state count remain valid at every other: they are properties of
    /// the predicate sequence, not of a particular automaton size).
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero.
    pub fn set_num_states(&mut self, num_states: usize) {
        assert!(num_states > 0, "at least one state is required");
        self.num_states = num_states;
    }

    /// The windows this encoder constrains.
    pub fn windows(&self) -> &[Vec<PredId>] {
        &self.windows
    }

    /// Adds an invalid transition sequence that must not be a path of the
    /// automaton (a compliance-check counterexample).
    pub fn forbid_sequence(&mut self, sequence: Vec<PredId>) {
        if !sequence.is_empty() && !self.forbidden.contains(&sequence) {
            self.forbidden.push(sequence);
        }
    }

    /// The number of forbidden sequences currently registered.
    pub fn num_forbidden(&self) -> usize {
        self.forbidden.len()
    }

    /// A cheap upper bound on the number of clauses the encoding will
    /// produce, used to enforce the learner's size budget before building
    /// the formula.
    pub fn estimated_clauses(&self) -> usize {
        let n = self.num_states;
        let slots = self.num_slots - self.windows.len();
        let alphabet = self.alphabet.len();
        let states_per_slot = n * n / 2 + 1; // exactly-one
        let linkage = slots * n * n;
        let succ = n * alphabet * (n * n / 2 + 1);
        let symmetry = if self.symmetry_breaking {
            (slots + self.windows.len()) * n * 5 + 1
        } else {
            0
        };
        let forbidden: usize = self
            .forbidden
            .iter()
            .map(|seq| n.pow(seq.len() as u32 + 1))
            .sum();
        (slots + self.windows.len()) * states_per_slot + linkage + succ + symmetry + forbidden
    }

    /// Builds the CNF instance (base constraints plus every forbidden
    /// sequence registered so far). Does not affect the incremental cursor
    /// used by [`AutomatonEncoder::delta_clauses`].
    pub fn encode(&self) -> Encoding {
        self.build()
    }

    /// Builds the CNF instance and marks every currently registered
    /// forbidden sequence as encoded, so a subsequent
    /// [`AutomatonEncoder::delta_clauses`] call yields only the exclusions
    /// added after this point. Call once per candidate state count.
    pub fn encode_base(&mut self) -> Encoding {
        let encoding = self.build();
        self.encoded_forbidden = self.forbidden.len();
        encoding
    }

    /// Returns the path-exclusion clauses for the forbidden sequences added
    /// since the last [`AutomatonEncoder::encode_base`] /
    /// [`AutomatonEncoder::delta_clauses`] call, phrased over `encoding`'s
    /// variables. Feeding them to the solver that loaded `encoding` brings it
    /// up to date without rebuilding the formula.
    pub fn delta_clauses(&mut self, encoding: &Encoding) -> Vec<Vec<Lit>> {
        assert_eq!(
            encoding.layout.states, self.num_states,
            "encoding was built for a different state count"
        );
        let mut delta = Cnf::with_vars(encoding.cnf.num_vars());
        let mut states = Vec::new();
        for sequence in &self.forbidden[self.encoded_forbidden..] {
            self.add_exclusions(sequence, encoding.layout, &mut states, &mut delta);
        }
        self.encoded_forbidden = self.forbidden.len();
        delta.clauses().map(<[Lit]>::to_vec).collect()
    }

    /// The variable numbering at the current state count.
    fn layout(&self) -> Layout {
        Layout {
            states: self.num_states,
            alphabet: self.alphabet.len(),
            slots: self.num_slots,
        }
    }

    /// The rank of `p`, or `None` when no window contains it.
    fn rank(&self, p: PredId) -> Option<usize> {
        self.ranks
            .get(p.index())
            .copied()
            .flatten()
            .map(|rank| rank as usize)
    }

    fn build(&self) -> Encoding {
        let layout = self.layout();
        let n = layout.states;
        let mut cnf = Cnf::with_vars(layout.num_vars(self.symmetry_breaking));

        // Determinism: at most one successor per (state, predicate).
        for s in 0..n {
            for rank in 0..layout.alphabet {
                at_most_one(&mut cnf, n, |t| layout.succ(s, rank, t));
            }
        }

        // Slot state variables, one-hot per slot.
        for g in 0..layout.slots {
            cnf.add_clause((0..n).map(|s| Lit::positive(layout.slot(g, s))));
            at_most_one(&mut cnf, n, |s| layout.slot(g, s));
        }

        // BFS-order symmetry breaking: automaton states are interchangeable,
        // so without extra constraints every UNSAT proof must refute all
        // (k-1)! relabellings of every candidate machine. Emit predicates
        // that admit only the canonical relabelling in which the
        // lowest-index state is the initial one and each new state is first
        // reached from a lower-indexed point of the (linearised) slot
        // sequence. Satisfiability is preserved — any solution relabels into
        // this canonical form — while the "no k-state automaton exists"
        // refutations shrink by the orbit factor.
        if self.symmetry_breaking {
            emit_symmetry_breaking(&mut cnf, layout);
        }

        // Linkage: every window is a path consistent with the successor
        // function.
        let mut first = 0;
        for window in &self.windows {
            for (j, &p) in window.iter().enumerate() {
                let rank = self.rank(p).expect("window predicates are in the alphabet");
                let g = first + j;
                for s in 0..n {
                    for t in 0..n {
                        cnf.add_clause([
                            Lit::negative(layout.slot(g, s)),
                            Lit::negative(layout.slot(g + 1, t)),
                            Lit::positive(layout.succ(s, rank, t)),
                        ]);
                    }
                }
            }
            first += window.len() + 1;
        }

        // Forbidden paths from the compliance check.
        let mut states = Vec::new();
        for sequence in &self.forbidden {
            self.add_exclusions(sequence, layout, &mut states, &mut cnf);
        }

        Encoding {
            cnf,
            layout,
            alphabet: self.alphabet.clone(),
        }
    }

    /// Adds to `cnf` the clauses forbidding `sequence` as a path: for every
    /// state tuple `(s₀, …, s_k)`, not all of the transitions
    /// `s_i --p_i--> s_{i+1}` may be present. The tuples run in odometer
    /// order, `s₀` fastest, in the reused buffer `states`.
    fn add_exclusions(
        &self,
        sequence: &[PredId],
        layout: Layout,
        states: &mut Vec<usize>,
        cnf: &mut Cnf,
    ) {
        // A sequence mentioning a predicate outside the alphabet can never be
        // a path built from window slots.
        if sequence.iter().any(|&p| self.rank(p).is_none()) {
            return;
        }
        states.clear();
        states.resize(sequence.len() + 1, 0);
        loop {
            cnf.add_clause(sequence.iter().enumerate().map(|(k, &p)| {
                let rank = self.rank(p).expect("the sequence is in the alphabet");
                Lit::negative(layout.succ(states[k], rank, states[k + 1]))
            }));
            // Advance the state tuple (odometer).
            let mut position = 0;
            loop {
                if position == states.len() {
                    break;
                }
                states[position] += 1;
                if states[position] < layout.states {
                    break;
                }
                states[position] = 0;
                position += 1;
            }
            if position == states.len() {
                break;
            }
        }
    }
}

/// Adds the pairwise at-most-one clauses over `var(0)`, …, `var(n − 1)`, in
/// the order of [`Cnf::at_most_one`].
fn at_most_one(cnf: &mut Cnf, n: usize, var: impl Fn(usize) -> Var) {
    for i in 0..n {
        for j in (i + 1)..n {
            cnf.add_clause([Lit::negative(var(i)), Lit::negative(var(j))]);
        }
    }
}

/// Emits the BFS-order symmetry-breaking predicates over the slot state
/// variables: the lowest-index state is the initial one (the first slot of
/// the first window is pinned to state 0), and a ladder of "seen" variables
/// — `seen[g][s]` ⇔ some slot at position ≤ `g` is in state `s` — forces
/// states to be numbered in first-use order along the linearised slot
/// sequence: a slot may only enter state `s ≥ 1` once state `s − 1` was seen
/// strictly earlier. (The monotone clauses `seen[g][s] → seen[g][s−1]` are
/// implied and deliberately *not* emitted: measured on usb_attach they steer
/// the search into ~35 % more conflicts.) Everything here is phrased over
/// the base variables, so the delta protocol is unaffected.
fn emit_symmetry_breaking(cnf: &mut Cnf, layout: Layout) {
    let n = layout.states;
    // The lowest-index state is the initial state.
    cnf.add_clause([Lit::positive(layout.slot(0, 0))]);
    for g in 0..layout.slots {
        for s in 0..n {
            let slot = Lit::positive(layout.slot(g, s));
            let seen = Lit::positive(layout.seen(g, s));
            cnf.implies(slot, seen);
            if g == 0 {
                cnf.implies(seen, slot);
                if s >= 1 {
                    // The first slot is pinned to state 0.
                    cnf.add_clause([!slot]);
                }
            } else {
                let previous_seen = Lit::positive(layout.seen(g - 1, s));
                cnf.add_clause([!seen, previous_seen, slot]);
                cnf.implies(previous_seen, seen);
                if s >= 1 {
                    // First reached only after s − 1 was reached earlier.
                    cnf.implies(slot, Lit::positive(layout.seen(g - 1, s - 1)));
                }
            }
        }
    }
}

impl Encoding {
    /// Decodes a satisfying assignment into an automaton over predicate ids.
    ///
    /// Transitions are read off the window slots (not the raw successor
    /// variables), so the decoded automaton contains exactly the transitions
    /// needed to embed every window.
    pub fn decode(&self, windows: &[Vec<PredId>], model: &Model) -> Nfa<PredId> {
        let layout = self.layout;
        let initial = layout.state_of(0, model);
        let mut nfa = Nfa::new(layout.states, StateId::new(initial as u32));
        let mut first = 0;
        for window in windows {
            let mut from = layout.state_of(first, model);
            for (j, &p) in window.iter().enumerate() {
                let to = layout.state_of(first + j + 1, model);
                nfa.add_transition(StateId::new(from as u32), p, StateId::new(to as u32));
                from = to;
            }
            first += window.len() + 1;
        }
        nfa
    }

    /// Whether the decoded transition relation marks `s --p--> t` as used.
    pub fn successor_var(&self, s: usize, p: PredId, t: usize) -> Option<Var> {
        let n = self.layout.states;
        let rank = self.alphabet.binary_search(&p).ok()?;
        (s < n && t < n).then(|| self.layout.succ(s, rank, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::PredicateAlphabet;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};
    use tracelearn_expr::Predicate;
    use tracelearn_sat::{SatResult, Solver};

    fn ids(alphabet: &mut PredicateAlphabet, n: usize) -> Vec<PredId> {
        // Distinct dummy predicates: x' = k for k in 0..n over a fake variable.
        (0..n)
            .map(|k| {
                alphabet.intern(Predicate::update(
                    tracelearn_trace::VarId::new(0),
                    tracelearn_expr::IntTerm::constant(k as i64),
                ))
            })
            .collect()
    }

    fn solve(encoder: &AutomatonEncoder) -> Option<Nfa<PredId>> {
        let encoding = encoder.encode();
        match Solver::from_cnf(&encoding.cnf).solve() {
            SatResult::Sat(model) => Some(encoding.decode(&encoder.windows, &model)),
            SatResult::Unsat => None,
            SatResult::Unknown => panic!("no limits were set"),
        }
    }

    #[test]
    fn single_window_needs_enough_states_without_loops() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Window a b c: a 1-state automaton exists (all self-loops).
        let encoder = AutomatonEncoder::new(vec![vec![p[0], p[1], p[2]]], 1);
        let nfa = solve(&encoder).expect("one state suffices with self-loops");
        assert_eq!(nfa.num_states(), 1);
        assert_eq!(nfa.num_transitions(), 3);
    }

    #[test]
    fn determinism_forces_unsat_when_states_are_too_few() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Windows: a b  and  a c — from the same source state, `a` must go to
        // two different places unless the sources differ. With 1 state the
        // instance is UNSAT; with 2 states it becomes satisfiable.
        let windows = vec![
            vec![p[0], p[1]],
            vec![p[0], p[2]],
            vec![p[1], p[0]],
            vec![p[2], p[2]],
        ];
        // b from the state reached by a, and c from that same state, force a split.
        let encoder = AutomatonEncoder::new(windows.clone(), 1);
        // With one state: a→s0 always, then b and c both leave s0 — that is
        // allowed (different predicates); so 1 state is actually satisfiable.
        assert!(solve(&encoder).is_some());

        // Force a genuine conflict: the same predicate must lead to two
        // different states. Window [a, b] pins a's target to where b starts;
        // forbidding the sequence [a, c] cannot help — instead we check that
        // forbidding [b, a] (which occurs as a window) is UNSAT at any size.
        let mut conflicted = AutomatonEncoder::new(windows, 2);
        conflicted.forbid_sequence(vec![p[1], p[0]]);
        assert!(
            solve(&conflicted).is_none(),
            "forbidding an embedded window is contradictory"
        );
    }

    #[test]
    fn forbidden_sequences_are_not_paths() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Windows embed a→b and b→c; without constraints a 1-state automaton
        // would also admit the path a→c … a, c adjacency.
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];
        let mut encoder = AutomatonEncoder::new(windows, 2);
        encoder.forbid_sequence(vec![p[2], p[0]]);
        encoder.forbid_sequence(vec![p[2], p[2]]);
        let nfa = solve(&encoder).expect("two states suffice");
        let paths: Vec<Vec<PredId>> = nfa.label_paths(2).paths;
        assert!(!paths.contains(&vec![p[2], p[0]]));
        assert!(!paths.contains(&vec![p[2], p[2]]));
        // The embedded windows remain paths.
        assert!(paths.contains(&vec![p[0], p[1]]));
        assert!(paths.contains(&vec![p[1], p[2]]));
    }

    #[test]
    fn unsatisfiable_when_forbidding_an_embedded_window() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 2);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1]]], 4);
        encoder.forbid_sequence(vec![p[0], p[1]]);
        assert!(solve(&encoder).is_none());
    }

    #[test]
    fn decoded_automaton_embeds_every_window() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 4);
        let windows = vec![
            vec![p[0], p[1], p[2]],
            vec![p[1], p[2], p[3]],
            vec![p[2], p[3], p[0]],
        ];
        let encoder = AutomatonEncoder::new(windows.clone(), 3);
        let nfa = solve(&encoder).expect("three states suffice");
        for window in &windows {
            assert!(nfa.accepts_from_any_state(window), "window not embedded");
        }
        assert!(nfa.is_deterministic());
    }

    #[test]
    fn forbidding_duplicate_sequences_is_idempotent() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 2);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1]]], 2);
        encoder.forbid_sequence(vec![p[1], p[1]]);
        encoder.forbid_sequence(vec![p[1], p[1]]);
        encoder.forbid_sequence(vec![]);
        assert_eq!(encoder.num_forbidden(), 1);
    }

    #[test]
    fn estimated_clauses_is_an_upper_bound() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1], p[2]]], 3);
        encoder.forbid_sequence(vec![p[2], p[2]]);
        let estimate = encoder.estimated_clauses();
        let actual = encoder.encode().cnf.num_clauses();
        assert!(estimate >= actual, "estimate {estimate} < actual {actual}");
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_windows_panic() {
        let _ = AutomatonEncoder::new(vec![], 2);
    }

    /// New in this PR — (c) of the solver test checklist: the
    /// symmetry-broken encoding is SAT/UNSAT-equivalent to the unbroken one
    /// on small hand-built automata, across state counts and forbidden-
    /// sequence sets. Symmetry breaking only prunes relabellings; it must
    /// never flip an answer.
    #[test]
    fn symmetry_breaking_preserves_satisfiability() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 4);
        let window_sets: Vec<Vec<Vec<PredId>>> = vec![
            vec![vec![p[0], p[1], p[2]]],
            vec![vec![p[0], p[1]], vec![p[1], p[2]], vec![p[2], p[0]]],
            vec![vec![p[0], p[0], p[1]], vec![p[1], p[3]]],
        ];
        let forbidden_sets: Vec<Vec<Vec<PredId>>> = vec![
            vec![],
            vec![vec![p[2], p[2]]],
            vec![vec![p[1], p[0]], vec![p[0], p[1]]], // includes an embedded window
        ];
        for windows in &window_sets {
            for forbidden in &forbidden_sets {
                for n in 1..=4 {
                    let mut broken = AutomatonEncoder::new(windows.clone(), n);
                    let mut unbroken =
                        AutomatonEncoder::new(windows.clone(), n).with_symmetry_breaking(false);
                    assert!(broken.symmetry_breaking());
                    assert!(!unbroken.symmetry_breaking());
                    for sequence in forbidden {
                        broken.forbid_sequence(sequence.clone());
                        unbroken.forbid_sequence(sequence.clone());
                    }
                    let broken_encoding = broken.encode();
                    let with = Solver::from_cnf(&broken_encoding.cnf).solve();
                    let without = Solver::from_cnf(&unbroken.encode().cnf).solve();
                    assert_eq!(
                        with.is_sat(),
                        without.is_sat(),
                        "symmetry breaking flipped the answer at n={n} for \
                         windows {windows:?} / forbidden {forbidden:?}"
                    );
                    // A SAT broken encoding decodes into a valid automaton
                    // that embeds every window.
                    if let SatResult::Sat(model) = &with {
                        let nfa = broken_encoding.decode(windows, model);
                        for window in windows {
                            assert!(nfa.accepts_from_any_state(window));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn symmetry_breaking_numbers_states_in_first_use_order() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Two windows that force at least three states when self-loops are
        // forbidden on every predicate.
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];
        let mut encoder = AutomatonEncoder::new(windows.clone(), 3);
        for &q in &p {
            encoder.forbid_sequence(vec![q, q]);
        }
        let encoding = encoder.encode();
        match Solver::from_cnf(&encoding.cnf).solve() {
            SatResult::Sat(model) => {
                let nfa = encoding.decode(&windows, &model);
                // Canonical numbering: the initial state is 0, and walking
                // the linearised slots never jumps to a state whose
                // predecessor index has not appeared yet.
                assert_eq!(nfa.initial().index(), 0);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn delta_clauses_cover_only_new_forbidden_sequences() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];
        let mut encoder = AutomatonEncoder::new(windows, 2);
        encoder.forbid_sequence(vec![p[2], p[0]]);
        let encoding = encoder.encode_base();
        // Already-encoded sequences do not reappear in the delta.
        assert!(encoder.delta_clauses(&encoding).is_empty());
        encoder.forbid_sequence(vec![p[2], p[2]]);
        let delta = encoder.delta_clauses(&encoding);
        // One exclusion clause per state tuple: n^(len+1) = 2^3.
        assert_eq!(delta.len(), 8);
        // The cursor advanced: pulling again yields nothing.
        assert!(encoder.delta_clauses(&encoding).is_empty());
        // Sequences outside the window alphabet contribute no clauses.
        let mut extra = PredicateAlphabet::new();
        let foreign = ids(&mut extra, 5);
        encoder.forbid_sequence(vec![foreign[4]]);
        assert!(encoder.delta_clauses(&encoding).is_empty());
    }

    #[test]
    fn incremental_deltas_agree_with_from_scratch_encoding() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];

        // Incremental: base encoding + one solver, deltas fed as they come.
        let mut encoder = AutomatonEncoder::new(windows.clone(), 2);
        let encoding = encoder.encode_base();
        let mut solver = Solver::from_cnf(&encoding.cnf);
        assert!(solver.solve().is_sat());
        encoder.forbid_sequence(vec![p[2], p[0]]);
        encoder.forbid_sequence(vec![p[2], p[2]]);
        for clause in encoder.delta_clauses(&encoding) {
            solver.add_clause(clause);
        }
        let incremental = solver.solve();

        // From scratch on the same constraint set.
        let reference = Solver::from_cnf(&encoder.encode().cnf).solve();
        assert_eq!(incremental.is_sat(), reference.is_sat());
        // And forbidding an embedded window drives both to UNSAT.
        encoder.forbid_sequence(vec![p[0], p[1]]);
        for clause in encoder.delta_clauses(&encoding) {
            solver.add_clause(clause);
        }
        assert!(solver.solve().is_unsat());
        assert!(Solver::from_cnf(&encoder.encode().cnf).solve().is_unsat());
    }

    #[test]
    fn set_num_states_retargets_and_keeps_forbidden_sequences() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 2);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1]]], 4);
        encoder.forbid_sequence(vec![p[0], p[1]]);
        assert!(solve(&encoder).is_none(), "embedded window forbidden");
        encoder.set_num_states(2);
        assert_eq!(encoder.num_forbidden(), 1);
        assert!(
            solve(&encoder).is_none(),
            "forbidden sequences survive retargeting"
        );
    }

    /// The encoder as it was before its variables were numbered
    /// arithmetically: every variable allocated one by one, the successor
    /// variables looked up in a `HashMap` and every clause collected into a
    /// `Vec` of its own. The body of `build` and its helpers are kept as
    /// they were, so the lock test below can assert that the arithmetic
    /// encoder emits exactly this formula.
    struct Reference<'a> {
        windows: &'a [Vec<PredId>],
        num_states: usize,
        forbidden: &'a [Vec<PredId>],
        symmetry_breaking: bool,
    }

    struct ReferenceEncoding {
        cnf: Cnf,
        slot_vars: Vec<Vec<Vec<Var>>>,
        succ_vars: HashMap<(usize, PredId, usize), Var>,
        alphabet: BTreeSet<PredId>,
        num_states: usize,
    }

    impl Reference<'_> {
        fn build(&self) -> ReferenceEncoding {
            let n = self.num_states;
            let mut cnf = Cnf::new();

            // Successor variables for every predicate that occurs in a window.
            let alphabet: BTreeSet<PredId> = self.windows.iter().flatten().copied().collect();
            let mut succ_vars: HashMap<(usize, PredId, usize), Var> = HashMap::new();
            for s in 0..n {
                for &p in &alphabet {
                    for t in 0..n {
                        succ_vars.insert((s, p, t), cnf.new_var());
                    }
                    // Determinism: at most one successor per (state, predicate).
                    let lits: Vec<Lit> = (0..n)
                        .map(|t| Lit::positive(succ_vars[&(s, p, t)]))
                        .collect();
                    cnf.at_most_one(&lits);
                }
            }

            // Slot state variables, one-hot per slot.
            let mut slot_vars: Vec<Vec<Vec<Var>>> = Vec::with_capacity(self.windows.len());
            for window in self.windows {
                let mut per_slot = Vec::with_capacity(window.len() + 1);
                for _ in 0..=window.len() {
                    let vars = cnf.new_vars(n);
                    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::positive(v)).collect();
                    cnf.exactly_one(&lits);
                    per_slot.push(vars);
                }
                slot_vars.push(per_slot);
            }

            if self.symmetry_breaking {
                self.emit_symmetry_breaking(&mut cnf, &slot_vars);
            }

            // Linkage: every window is a path consistent with the successor
            // function.
            for (i, window) in self.windows.iter().enumerate() {
                for (j, &p) in window.iter().enumerate() {
                    for s in 0..n {
                        for t in 0..n {
                            cnf.implies2(
                                Lit::positive(slot_vars[i][j][s]),
                                Lit::positive(slot_vars[i][j + 1][t]),
                                Lit::positive(succ_vars[&(s, p, t)]),
                            );
                        }
                    }
                }
            }

            // Forbidden paths from the compliance check.
            let mut exclusions = Vec::new();
            for sequence in self.forbidden {
                reference_exclusion_clauses(sequence, &alphabet, &succ_vars, n, &mut exclusions);
            }
            for clause in exclusions {
                cnf.add_clause(clause);
            }

            ReferenceEncoding {
                cnf,
                slot_vars,
                succ_vars,
                alphabet,
                num_states: n,
            }
        }

        fn emit_symmetry_breaking(&self, cnf: &mut Cnf, slot_vars: &[Vec<Vec<Var>>]) {
            let n = self.num_states;
            // The lowest-index state is the initial state.
            cnf.add_clause([Lit::positive(slot_vars[0][0][0])]);
            let linear: Vec<&Vec<Var>> = slot_vars.iter().flatten().collect();
            let mut previous_seen: Vec<Var> = Vec::new();
            for (t, slot) in linear.iter().enumerate() {
                let seen = cnf.new_vars(n);
                for s in 0..n {
                    cnf.implies(Lit::positive(slot[s]), Lit::positive(seen[s]));
                    if t == 0 {
                        cnf.implies(Lit::positive(seen[s]), Lit::positive(slot[s]));
                        if s >= 1 {
                            // The first slot is pinned to state 0.
                            cnf.add_clause([Lit::negative(slot[s])]);
                        }
                    } else {
                        cnf.add_clause([
                            Lit::negative(seen[s]),
                            Lit::positive(previous_seen[s]),
                            Lit::positive(slot[s]),
                        ]);
                        cnf.implies(Lit::positive(previous_seen[s]), Lit::positive(seen[s]));
                        if s >= 1 {
                            // First reached only after s − 1 was reached earlier.
                            cnf.implies(
                                Lit::positive(slot[s]),
                                Lit::positive(previous_seen[s - 1]),
                            );
                        }
                    }
                }
                previous_seen = seen;
            }
        }
    }

    impl ReferenceEncoding {
        /// The clauses forbidding each of `sequences`, over this encoding's
        /// variables.
        fn exclusions(&self, sequences: &[Vec<PredId>]) -> Vec<Vec<Lit>> {
            let mut clauses = Vec::new();
            for sequence in sequences {
                reference_exclusion_clauses(
                    sequence,
                    &self.alphabet,
                    &self.succ_vars,
                    self.num_states,
                    &mut clauses,
                );
            }
            clauses
        }

        fn decode(&self, windows: &[Vec<PredId>], model: &Model) -> Nfa<PredId> {
            let state_of = |vars: &[Var]| -> usize {
                vars.iter()
                    .position(|&v| model.value(v))
                    .expect("exactly-one constraint guarantees a state")
            };
            let initial = state_of(&self.slot_vars[0][0]);
            let mut nfa = Nfa::new(self.num_states, StateId::new(initial as u32));
            for (i, window) in windows.iter().enumerate() {
                for (j, &p) in window.iter().enumerate() {
                    let from = state_of(&self.slot_vars[i][j]);
                    let to = state_of(&self.slot_vars[i][j + 1]);
                    nfa.add_transition(StateId::new(from as u32), p, StateId::new(to as u32));
                }
            }
            nfa
        }
    }

    fn reference_exclusion_clauses(
        sequence: &[PredId],
        alphabet: &BTreeSet<PredId>,
        succ_vars: &HashMap<(usize, PredId, usize), Var>,
        n: usize,
        out: &mut Vec<Vec<Lit>>,
    ) {
        if sequence.iter().any(|p| !alphabet.contains(p)) {
            return;
        }
        let mut states = vec![0usize; sequence.len() + 1];
        loop {
            let clause: Vec<Lit> = sequence
                .iter()
                .enumerate()
                .map(|(k, &p)| Lit::negative(succ_vars[&(states[k], p, states[k + 1])]))
                .collect();
            out.push(clause);
            let mut position = 0;
            loop {
                if position == states.len() {
                    break;
                }
                states[position] += 1;
                if states[position] < n {
                    break;
                }
                states[position] = 0;
                position += 1;
            }
            if position == states.len() {
                break;
            }
        }
    }

    /// Asserts that two formulas have the same variable count and the same
    /// clauses in the same order, naming the first clause that differs.
    fn assert_same_formula(actual: &Cnf, expected: &Cnf, what: &str) {
        assert_eq!(
            actual.num_vars(),
            expected.num_vars(),
            "{what}: variable count"
        );
        assert_eq!(
            actual.num_clauses(),
            expected.num_clauses(),
            "{what}: clause count"
        );
        for (index, (got, want)) in actual.clauses().zip(expected.clauses()).enumerate() {
            assert_eq!(got, want, "{what}: clause {index}");
        }
    }

    /// Indices into a pool of 16 predicates that the windows draw from:
    /// sparse, so a predicate's rank differs from its index and the rank
    /// table has holes.
    const SPARSE: [usize; 5] = [1, 4, 5, 9, 12];
    /// Pool indices no window uses: a forbidden sequence naming one of them
    /// lies outside the alphabet.
    const FOREIGN: [usize; 2] = [2, 15];

    proptest! {
        /// The arithmetic layout numbers variables and orders clauses
        /// exactly as the reference encoder allocated and emitted them:
        /// the base formula, `encode()` with every forbidden sequence, each
        /// delta batch and every successor variable agree, and the same
        /// model decodes into the same automaton.
        #[test]
        fn arithmetic_layout_emits_the_reference_formula(
            window_picks in proptest::collection::vec(
                proptest::collection::vec(0usize..SPARSE.len(), 1..5),
                1..7,
            ),
            batch_picks in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0usize..SPARSE.len() + FOREIGN.len(), 1..4),
                    0..3,
                ),
                1..4,
            ),
            n in 1usize..6,
            symmetry_breaking in proptest::bool::ANY,
        ) {
            let mut pool = PredicateAlphabet::new();
            let p = ids(&mut pool, 16);
            let pick = |k: usize| p[*SPARSE.iter().chain(&FOREIGN).nth(k).unwrap()];
            let windows: Vec<Vec<PredId>> = window_picks
                .iter()
                .map(|window| window.iter().map(|&k| pick(k)).collect())
                .collect();
            let batches: Vec<Vec<Vec<PredId>>> = batch_picks
                .iter()
                .map(|batch| {
                    batch
                        .iter()
                        .map(|sequence| sequence.iter().map(|&k| pick(k)).collect())
                        .collect()
                })
                .collect();

            let mut encoder = AutomatonEncoder::new(windows.clone(), n)
                .with_symmetry_breaking(symmetry_breaking);
            for sequence in &batches[0] {
                encoder.forbid_sequence(sequence.clone());
            }
            let reference = |forbidden: &[Vec<PredId>]| {
                Reference {
                    windows: &windows,
                    num_states: n,
                    forbidden,
                    symmetry_breaking,
                }
                .build()
            };
            let base_reference = reference(&encoder.forbidden);
            assert_same_formula(&encoder.encode().cnf, &base_reference.cnf, "encode");
            let base = encoder.encode_base();
            assert_same_formula(&base.cnf, &base_reference.cnf, "encode_base");

            for batch in &batches[1..] {
                let already = encoder.num_forbidden();
                for sequence in batch {
                    encoder.forbid_sequence(sequence.clone());
                }
                let expected = base_reference.exclusions(&encoder.forbidden[already..]);
                prop_assert_eq!(encoder.delta_clauses(&base), expected);
            }
            let full_reference = reference(&encoder.forbidden);
            assert_same_formula(&encoder.encode().cnf, &full_reference.cnf, "encode after deltas");

            for s in 0..=n {
                for t in 0..=n {
                    for &q in &p {
                        prop_assert_eq!(
                            base.successor_var(s, q, t),
                            base_reference.succ_vars.get(&(s, q, t)).copied()
                        );
                    }
                }
            }

            if let SatResult::Sat(model) = Solver::from_cnf(&base.cnf).solve() {
                prop_assert_eq!(
                    base.decode(&windows, &model),
                    base_reference.decode(&windows, &model)
                );
            }

            // Retargeted to the next state count, with every sequence so far.
            let next = n % 5 + 1;
            encoder.set_num_states(next);
            let retargeted = Reference {
                windows: &windows,
                num_states: next,
                forbidden: &encoder.forbidden,
                symmetry_breaking,
            }
            .build();
            assert_same_formula(&encoder.encode_base().cnf, &retargeted.cnf, "retargeted");
        }
    }
}
